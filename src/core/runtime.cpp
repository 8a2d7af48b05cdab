#include "core/runtime.hpp"

namespace aam::core {

class AamRuntime::BatchWorker : public htm::Worker {
 public:
  explicit BatchWorker(AamRuntime& rt) : rt_(rt) {}

  bool next(htm::ThreadCtx& ctx) override {
    std::uint64_t begin = 0;
    std::uint64_t end = 0;
    const int m = rt_.executor_->preferred_batch();
    if (!rt_.cursor_.claim(ctx, rt_.count_, static_cast<std::uint32_t>(m),
                           begin, end)) {
      return false;
    }
    // One coarse activity: the executor applies the claimed chunk under
    // its mechanism (a single transaction for kHtmCoarsened, per-item
    // synchronization otherwise). Bodies may re-execute on retries, so
    // everything derives from (begin, end) and executor-visible state.
    rt_.batch_fn_(ctx, begin, end);
    return true;
  }

 private:
  AamRuntime& rt_;
};

AamRuntime::AamRuntime(htm::DesMachine& machine, Options options)
    : machine_(machine),
      executor_(make_executor(machine, options)),
      cursor_(machine.heap()),
      ckpt_(machine.recovery_client(),
            [this](util::BlobIo& io) { executor_->durable(io); }) {
  const int threads = machine_.num_threads();
  workers_.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    workers_.push_back(std::make_unique<BatchWorker>(*this));
    machine_.set_worker(static_cast<std::uint32_t>(t), workers_.back().get());
  }
}

AamRuntime::~AamRuntime() = default;

void AamRuntime::run_batches(std::uint64_t count, BatchFn fn) {
  cursor_.reset_direct();
  batch_fn_ = std::move(fn);
  count_ = count;
  machine_.run();
  batch_fn_ = nullptr;
}

}  // namespace aam::core
