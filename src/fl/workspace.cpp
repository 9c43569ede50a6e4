#include "fl/workspace.h"

namespace fedtrip::fl {

void WorkspacePool::Return::operator()(Workspace* ws) const {
  std::lock_guard<std::mutex> lock(pool->mutex_);
  pool->free_.push_back(ws);
}

WorkspacePool::Lease WorkspacePool::checkout() {
  std::unique_lock<std::mutex> lock(mutex_);
  if (!free_.empty()) {
    Workspace* ws = free_.back();
    free_.pop_back();
    lock.unlock();
    ws->model_->reset_streams();
    for (auto& aux : ws->aux_models_) {
      if (aux) aux->reset_streams();
    }
    return Lease(ws, Return{this});
  }
  // All in use: build outside the lock, so first checkouts run in parallel.
  lock.unlock();
  std::unique_ptr<Workspace> built(
      new Workspace(factory_, optim::make_optimizer(kind_, lr_, momentum_)));
  Workspace* ws = built.get();
  lock.lock();
  workspaces_.push_back(std::move(built));
  free_.reserve(workspaces_.size());  // so returning never allocates
  return Lease(ws, Return{this});
}

std::size_t WorkspacePool::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return workspaces_.size();
}

}  // namespace fedtrip::fl
