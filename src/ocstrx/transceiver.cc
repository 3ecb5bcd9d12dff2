#include "src/ocstrx/transceiver.h"

#include "src/common/contracts.h"

namespace ihbd::ocstrx {

TrxModel::TrxModel(const TrxConfig& c) : config(c), matrix(c.matrix) {
  IHBD_EXPECTS(c.line_rate_gbps > 0.0);
  IHBD_EXPECTS(c.serdes_pairs > 0);
}

Transceiver::Transceiver(std::uint32_t id, const TrxConfig& config)
    : Transceiver(id, std::make_shared<const TrxModel>(config)) {}

Transceiver::Transceiver(std::uint32_t id,
                         std::shared_ptr<const TrxModel> model)
    : model_(std::move(model)), id_(id) {
  IHBD_EXPECTS(model_ != nullptr);
}

double Transceiver::bandwidth_gbps(OcsPath path) const {
  if (state_ == TrxState::kActive && active_ && *active_ == path)
    return model_->config.line_rate_gbps;
  return 0.0;
}

double Transceiver::switch_latency_s(Rng& rng, bool preloaded) const {
  double latency = model_->matrix.sample_reconfig_latency_s(rng);
  if (!preloaded) latency += model_->config.control_plane_latency_s;
  return latency;
}

bool Transceiver::reconfigure(evsim::Engine& engine, OcsPath path, Rng& rng,
                              bool preloaded, std::function<void()> done) {
  if (state_ == TrxState::kFailed || state_ == TrxState::kReconfiguring)
    return false;
  if (state_ == TrxState::kActive && active_ && *active_ == path) {
    if (done) engine.schedule_in(0.0, [d = std::move(done)](evsim::Engine&) {
      d();
    });
    return true;
  }
  state_ = TrxState::kReconfiguring;
  active_.reset();
  const double latency = switch_latency_s(rng, preloaded);
  const std::uint64_t epoch = epoch_;
  engine.schedule_in(latency, [this, path, epoch,
                               d = std::move(done)](evsim::Engine&) {
    if (epoch != epoch_) return;  // failed mid-flight; drop the completion
    state_ = TrxState::kActive;
    active_ = path;
    if (d) d();
  });
  return true;
}

std::optional<double> Transceiver::reconfigure_now(OcsPath path, Rng& rng,
                                                   bool preloaded) {
  if (state_ == TrxState::kFailed) return std::nullopt;
  if (state_ == TrxState::kActive && active_ && *active_ == path) return 0.0;
  const double latency = switch_latency_s(rng, preloaded);
  state_ = TrxState::kActive;
  active_ = path;
  return latency;
}

void Transceiver::fail() {
  state_ = TrxState::kFailed;
  active_.reset();
  ++epoch_;
}

void Transceiver::repair() {
  if (state_ == TrxState::kFailed) {
    state_ = TrxState::kIdle;
    ++epoch_;
  }
}

}  // namespace ihbd::ocstrx
