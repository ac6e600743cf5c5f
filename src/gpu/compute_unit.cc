#include "gpu/compute_unit.h"

#include "common/assert.h"
#include "gpu/gpu.h"

namespace mgcomp {

void ComputeUnit::start_kernel(const KernelTrace& kernel,
                               std::vector<const WorkgroupTrace*> wgs,
                               std::function<void()> on_done) {
  MGCOMP_CHECK_MSG(kernel_ == nullptr, "CU already running a kernel");
  kernel_ = &kernel;
  window_ = kernel.max_outstanding != 0 ? std::min(base_window_, kernel.max_outstanding)
                                        : base_window_;
  wgs_ = std::move(wgs);
  wg_pos_ = 0;
  op_pos_ = 0;
  param_pending_ = kernel.param_addr != 0;
  outstanding_ = 0;
  next_issue_at_ = engine_->now();
  on_done_ = std::move(on_done);
  pump();
}

const MemOp* ComputeUnit::current_op() const noexcept {
  if (wg_pos_ >= wgs_.size()) return nullptr;
  return &wgs_[wg_pos_]->ops[op_pos_];
}

void ComputeUnit::advance_op() noexcept {
  if (++op_pos_ >= wgs_[wg_pos_]->ops.size()) {
    op_pos_ = 0;
    // Skip empty workgroups so current_op() always points at a real op.
    do {
      ++wg_pos_;
    } while (wg_pos_ < wgs_.size() && wgs_[wg_pos_]->ops.empty());
  }
}

void ComputeUnit::pump() {
  if (kernel_ == nullptr) return;

  // Virtual issue clock: the CU pipeline may be committed past `now` from a
  // previous batch of issues.
  Tick t = std::max(engine_->now(), next_issue_at_);
  const Tick slice_end = t + kSliceCycles;
  const Tick gap = 1 + kernel_->compute_cycles_per_op;

  // Skip leading empty workgroups (only relevant right after start).
  while (wg_pos_ < wgs_.size() && wgs_[wg_pos_]->ops.empty()) ++wg_pos_;

  while (outstanding_ < window_ && t < slice_end) {
    if (param_pending_) {
      param_pending_ = false;
      t += gap;
      ++ops_issued_;
      if (!gpu_->scalar_read(id_, kernel_->param_addr, [this] { on_completion(); })) {
        ++outstanding_;
      }
      continue;
    }
    const MemOp* op = current_op();
    if (op == nullptr) break;
    t += gap;
    ++ops_issued_;
    // Misses are issued at virtual time t; scheduling the hand-off keeps
    // memory/RDMA timestamps consistent with the issue pipeline.
    const MemOp issued = *op;
    advance_op();
    if (gpu_->access(id_, issued, [this] { on_completion(); })) continue;  // inline hit
    ++outstanding_;
  }

  next_issue_at_ = t;

  if (!param_pending_ && current_op() == nullptr) {
    if (outstanding_ == 0) finish();
    return;  // drained or waiting for completions
  }
  if (outstanding_ < window_ && !cont_scheduled_) {
    // Yielded on the time slice: continue issuing at the virtual clock.
    cont_scheduled_ = true;
    engine_->schedule_at(t, [this] {
      cont_scheduled_ = false;
      pump();
    });
  }
  // Window full: the next completion re-enters pump().
}

void ComputeUnit::on_completion() {
  MGCOMP_CHECK(outstanding_ > 0);
  --outstanding_;
  pump();
}

void ComputeUnit::finish() {
  MGCOMP_CHECK(kernel_ != nullptr && outstanding_ == 0);
  kernel_ = nullptr;
  wgs_.clear();
  // The CU's pipeline drains at next_issue_at_; report completion then.
  auto done = std::move(on_done_);
  const Tick at = std::max(engine_->now(), next_issue_at_);
  engine_->schedule_at(at, std::move(done));
}

}  // namespace mgcomp
