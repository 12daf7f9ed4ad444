#include "er/session.h"

#include <algorithm>
#include <cctype>
#include <utility>

#include "core/logging.h"
#include "core/serialize.h"
#include "er/baselines/deepmatcher.h"
#include "er/baselines/ditto.h"
#include "er/baselines/gnn.h"
#include "er/baselines/magellan.h"
#include "er/hiergat.h"
#include "er/hiergat_plus.h"
#include "obs/flight_recorder.h"
#include "obs/log.h"

namespace hiergat {

namespace {

std::string Lower(const std::string& s) {
  std::string out = s;
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

/// An untrained pairwise matcher named by `options.matcher`: "hiergat",
/// "ditto", "deepmatcher" (alias "dm"), "dm+", or "magellan"
/// (case-insensitive). Null for unknown names.
std::unique_ptr<PairwiseModel> NewPairwiseModel(
    const SessionOptions& options) {
  const std::string key = Lower(options.matcher);
  if (key == "hiergat") {
    HierGatConfig config;
    config.lm_size = options.lm_size;
    if (options.lm_pretrain_steps >= 0) {
      config.lm_pretrain_steps = options.lm_pretrain_steps;
    }
    return std::make_unique<HierGatModel>(config);
  }
  if (key == "ditto") {
    DittoConfig config;
    config.lm_size = options.lm_size;
    if (options.lm_pretrain_steps >= 0) {
      config.lm_pretrain_steps = options.lm_pretrain_steps;
    }
    return std::make_unique<DittoModel>(config);
  }
  if (key == "deepmatcher" || key == "dm") {
    return std::make_unique<DeepMatcherModel>();
  }
  if (key == "dm+" || key == "dmplus") {
    return std::make_unique<DmPlusModel>();
  }
  if (key == "magellan") {
    return std::make_unique<MagellanModel>();
  }
  return nullptr;
}

/// An untrained collective matcher named by `options.matcher`:
/// "hiergat+", "gcn", "gat", or "hgat" (case-insensitive). Null for
/// unknown names.
std::unique_ptr<CollectiveModel> NewCollectiveModel(
    const SessionOptions& options) {
  const std::string key = Lower(options.matcher);
  if (key == "hiergat+" || key == "hiergatplus") {
    HierGatPlusConfig config;
    config.lm_size = options.lm_size;
    if (options.lm_pretrain_steps >= 0) {
      config.lm_pretrain_steps = options.lm_pretrain_steps;
    }
    return std::make_unique<HierGatPlusModel>(config);
  }
  if (key == "gcn") return std::make_unique<GcnCollectiveModel>();
  if (key == "gat") return std::make_unique<GatCollectiveModel>();
  if (key == "hgat") return std::make_unique<HgatCollectiveModel>();
  return nullptr;
}

/// Restores a trained `Concrete` model, whose checkpoint tag is `tag`,
/// from `path`. The tag is peeked first, so a wrong-family file reports
/// "not a known <kind> matcher" instead of a confusing tag mismatch
/// from the wrong Load.
template <typename Model, typename Concrete>
StatusOr<std::unique_ptr<Model>> LoadModel(const std::string& path,
                                           const char* tag, const char* kind) {
  auto reader_or = TensorReader::Open(path);
  HG_RETURN_IF_ERROR(reader_or.status());
  const std::string found = reader_or.value().model_tag();
  if (found != tag) {
    return Status::InvalidArgument("checkpoint tag '" + found +
                                   "' is not a known " + kind + " matcher");
  }
  std::unique_ptr<Model> model = std::make_unique<Concrete>();
  HG_RETURN_IF_ERROR(model->Load(path));
  return StatusOr<std::unique_ptr<Model>>(std::move(model));
}

}  // namespace

StatusOr<std::unique_ptr<Session>> Session::Open(
    const SessionOptions& options) {
  std::unique_ptr<Session> session(new Session());

  if (options.collective) {
    if (!options.checkpoint_path.empty()) {
      auto model_or = LoadModel<CollectiveModel, HierGatPlusModel>(
          options.checkpoint_path, "HierGAT+", "collective");
      HG_RETURN_IF_ERROR(model_or.status());
      session->collective_model_ = std::move(model_or).value();
    } else {
      session->collective_model_ = NewCollectiveModel(options);
      if (session->collective_model_ == nullptr) {
        return Status::InvalidArgument("unknown collective matcher '" +
                                       options.matcher + "'");
      }
    }
  } else {
    if (!options.checkpoint_path.empty()) {
      auto model_or = LoadModel<PairwiseModel, HierGatModel>(
          options.checkpoint_path, "HierGAT", "pairwise");
      HG_RETURN_IF_ERROR(model_or.status());
      session->pairwise_model_ = std::move(model_or).value();
    } else {
      session->pairwise_model_ = NewPairwiseModel(options);
      if (session->pairwise_model_ == nullptr) {
        return Status::InvalidArgument("unknown pairwise matcher '" +
                                       options.matcher + "'");
      }
    }
  }

  session->engine_ = std::make_unique<InferenceEngine>(options.engine);
  obs::RecordFlightEvent(obs::FlightEventKind::kSessionOpen, "Session::Open",
                         session->engine_->num_threads());
  HG_LOG(INFO) << "Session opened: "
               << (options.collective ? "collective" : "pairwise") << " '"
               << (session->pairwise_model_
                       ? session->pairwise_model_->name()
                       : session->collective_model_->name())
               << "'"
               << (options.checkpoint_path.empty()
                       ? std::string(" (untrained)")
                       : " from " + options.checkpoint_path)
               << ", " << session->engine_->num_threads()
               << " engine thread(s)";
  return StatusOr<std::unique_ptr<Session>>(std::move(session));
}

Session::~Session() = default;

Status Session::Train(const PairDataset& data, const TrainOptions& options) {
  if (pairwise_model_ == nullptr) {
    return Status::FailedPrecondition(
        "Session::Train(PairDataset): this is a collective session");
  }
  pairwise_model_->Train(data, options);
  return Status::Ok();
}

std::vector<float> Session::Score(std::span<const EntityPair> pairs) {
  HG_CHECK(pairwise_model_ != nullptr)
      << "Session::Score needs a pairwise session";
  return engine_->Score(*pairwise_model_, pairs);
}

EvalResult Session::Evaluate(std::span<const EntityPair> pairs) {
  HG_CHECK(pairwise_model_ != nullptr)
      << "Session::Evaluate(pairs) needs a pairwise session";
  return engine_->Evaluate(*pairwise_model_, pairs);
}

Status Session::Train(const CollectiveDataset& data,
                      const TrainOptions& options) {
  if (collective_model_ == nullptr) {
    return Status::FailedPrecondition(
        "Session::Train(CollectiveDataset): this is a pairwise session");
  }
  collective_model_->Train(data, options);
  return Status::Ok();
}

std::vector<std::vector<float>> Session::ScoreQueries(
    std::span<const CollectiveQuery> queries) {
  HG_CHECK(collective_model_ != nullptr)
      << "Session::ScoreQueries needs a collective session";
  return engine_->ScoreQueries(*collective_model_, queries);
}

EvalResult Session::Evaluate(std::span<const CollectiveQuery> queries) {
  HG_CHECK(collective_model_ != nullptr)
      << "Session::Evaluate(queries) needs a collective session";
  return engine_->Evaluate(*collective_model_, queries);
}

Status Session::SaveCheckpoint(const std::string& path) const {
  if (pairwise_model_ != nullptr) return pairwise_model_->Save(path);
  return collective_model_->Save(path);
}

}  // namespace hiergat
