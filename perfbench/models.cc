// Model set-up shared by the workloads: small HierGAT / HierGAT+
// instances trained on fixed-seed data, saved, and reopened from the
// checkpoint the way a deployment would.

#include <cstdio>
#include <cstdlib>

#include "blocking/embed_blocker.h"
#include "workload.h"

namespace perfbench {

using hiergat::Session;
using hiergat::SessionOptions;

namespace {

// Training is part of set-up, not of the measured work, so the models
// are small and briefly trained. The seeds are fixed: every run of
// every workload scores with the same weights.
constexpr uint64_t kTrainDataSeed = 7;
constexpr uint64_t kTrainSeed = 11;

hiergat::TrainOptions BenchTrainOptions(int epochs, int max_items) {
  hiergat::TrainOptions options;
  options.epochs = epochs;
  options.max_train_items = max_items;
  options.seed = kTrainSeed;
  // Epoch selection would score the validation split every epoch,
  // which costs more than the training itself at this size.
  options.select_best_on_validation = false;
  return options;
}

std::unique_ptr<Session> OpenFresh(const char* matcher, bool collective) {
  SessionOptions options;
  options.matcher = matcher;
  options.collective = collective;
  options.lm_size = hiergat::LmSize::kSmall;
  options.lm_pretrain_steps = 0;
  auto session = Session::Open(options);
  if (!session.ok()) {
    std::fprintf(stderr, "Session::Open(%s) failed: %s\n", matcher,
                 session.status().ToString().c_str());
    std::exit(2);
  }
  return std::move(session).value();
}

void SaveOrDie(const Session& session, const std::string& checkpoint) {
  const hiergat::Status saved = session.SaveCheckpoint(checkpoint);
  if (!saved.ok()) {
    std::fprintf(stderr, "SaveCheckpoint(%s) failed: %s\n", checkpoint.c_str(),
                 saved.ToString().c_str());
    std::exit(2);
  }
}

}  // namespace

hiergat::SyntheticSpec RecordSpec(const std::string& name, uint64_t seed) {
  hiergat::SyntheticSpec spec;
  spec.name = name;
  spec.seed = seed;
  return spec;
}

double TrainPairwiseCheckpoint(const std::string& checkpoint) {
  hiergat::SyntheticSpec spec = RecordSpec("train", kTrainDataSeed);
  spec.num_pairs = 600;
  spec.positive_ratio = 0.3f;
  const hiergat::PairDataset data = hiergat::GeneratePairDataset(spec);
  std::unique_ptr<Session> session = OpenFresh("hiergat", false);
  const uint64_t start = NowNs();
  const hiergat::Status trained = session->Train(data, BenchTrainOptions(2, 240));
  const double train_s = SecondsBetween(start, NowNs());
  if (!trained.ok()) {
    std::fprintf(stderr, "Train failed: %s\n", trained.ToString().c_str());
    std::exit(2);
  }
  SaveOrDie(*session, checkpoint);
  return train_s;
}

double TrainCollectiveCheckpoint(const std::string& checkpoint) {
  const hiergat::MultiSourceDataset raw =
      hiergat::GenerateMultiSource("train", 6, 120, kTrainDataSeed);
  const hiergat::CollectiveDataset data =
      hiergat::BuildCollectiveFromMultiSourceEmbed(raw, hiergat::EmbedBlockOptions());
  std::unique_ptr<Session> session = OpenFresh("hiergat+", true);
  const uint64_t start = NowNs();
  const hiergat::Status trained = session->Train(data, BenchTrainOptions(2, 32));
  const double train_s = SecondsBetween(start, NowNs());
  if (!trained.ok()) {
    std::fprintf(stderr, "Train failed: %s\n", trained.ToString().c_str());
    std::exit(2);
  }
  SaveOrDie(*session, checkpoint);
  return train_s;
}

std::unique_ptr<Session> OpenCheckpoint(const std::string& checkpoint,
                                        bool collective) {
  SessionOptions options;
  options.checkpoint_path = checkpoint;
  options.collective = collective;
  auto session = Session::Open(options);
  if (!session.ok()) {
    std::fprintf(stderr, "Session::Open(%s) failed: %s\n", checkpoint.c_str(),
                 session.status().ToString().c_str());
    std::exit(2);
  }
  return std::move(session).value();
}

}  // namespace perfbench
