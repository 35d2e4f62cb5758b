#include "service/commit_queue.h"

#include <cstdio>
#include <cstdlib>
#include <utility>
#include <vector>

namespace cpdb::service {

Status CommitQueue::Commit(std::function<Status()> apply, Timeline* timeline) {
  Request req;
  req.apply = std::move(apply);
  req.enqueue_us = obs::NowMicros();

  bool led = false;
  {
    MutexLock l(mu_);
    queue_.push_back(&req);
    if (leader_active_) {
      // Follow: a leader is combining. Wake when our cohort sealed, or
      // when the finishing leader promoted us to run the next one. The
      // wait is on OUR request's CondVar — the leader wakes exactly the
      // threads whose state changed, not every committer in the building.
      while (!req.done && !req.leader) req.cv.Wait(mu_);
    }
    if (!req.done) {
      led = true;
      leader_active_ = true;
      RunCohort();
    }
  }
  // Post-done: the leader's stamps on `req` are ordered by the mu_
  // handshake. The member records its own stage durations — commits are
  // the unit the percentiles answer for, see StageMetrics.
  const double done_us = obs::NowMicros();
  Timeline t;
  t.cohort = req.cohort_id;
  t.cohort_size = req.cohort_size;
  t.leader = led;
  t.queue_us = req.lead_us - req.enqueue_us;
  t.apply_us = req.applied_us - req.lead_us;
  t.seal_us = req.sealed_us - req.applied_us;
  t.wake_us = done_us - req.sealed_us;
  t.total_us = done_us - req.enqueue_us;
  if (metrics_.queue_us) metrics_.queue_us->Record(t.queue_us);
  if (metrics_.apply_us) metrics_.apply_us->Record(t.apply_us);
  if (metrics_.seal_us) metrics_.seal_us->Record(t.seal_us);
  if (metrics_.wake_us) metrics_.wake_us->Record(t.wake_us);
  if (metrics_.total_us) metrics_.total_us->Record(t.total_us);
  if (timeline != nullptr) *timeline = t;
  return req.result;
}

void CommitQueue::RunCohort() {
  // Acquire the exclusive grant BEFORE draining: every committer that
  // arrives while we wait out the active readers joins this cohort and
  // rides our fsync — the opportunistic-combining window.
  mu_.Unlock();
  latch_->LockExclusive();
  mu_.Lock();
  std::vector<Request*> cohort(queue_.begin(), queue_.end());
  queue_.clear();
  TestHooks hooks = hooks_;  // per-cohort snapshot; hooks_ stays under mu_
  const uint64_t cohort_id = ++cohort_seq_;
  mu_.Unlock();

  // One leader-side stamp per stage boundary, shared by every member:
  // the cohort moves through the pipeline as a unit.
  const double lead_us = obs::NowMicros();
  uint64_t syncs_before = sync_probe_ ? sync_probe_() : 0;
  // Enqueue order is tid order: the closures mint their tids as they run.
  for (Request* r : cohort) r->result = r->apply();
  const double applied_us = obs::NowMicros();
  if (hooks.before_seal) hooks.before_seal(cohort.size());
  Status sealed = seal_(cohort.size());
  if (hooks.after_seal) hooks.after_seal(cohort.size());
  const double sealed_us = obs::NowMicros();
  if (sync_probe_ && sync_probe_() != syncs_before + 1) {
    // The ONE-seal contract is load-bearing for both durability (cohort =
    // one WAL record) and the perf model (fsyncs_per_commit = 1/cohort);
    // a member's apply closure running its own barrier silently breaks
    // crash atomicity, so this is a fail-stop.
    std::fprintf(stderr,
                 "CommitQueue: cohort of %zu sealed with %llu barriers, "
                 "expected exactly 1\n",
                 cohort.size(),
                 static_cast<unsigned long long>(sync_probe_() -
                                                 syncs_before));
    std::abort();
  }
  if (publish_) publish_();
  latch_->UnlockExclusive();

  // Leaders are serialized (leader_active_ until the baton passes below),
  // so the max-cohort read-compare-set cannot race another leader.
  const auto size = static_cast<int64_t>(cohort.size());
  if (metrics_.cohort_size) {
    metrics_.cohort_size->Record(static_cast<double>(size));
  }
  if (metrics_.commits) metrics_.commits->Inc(cohort.size());
  if (metrics_.cohorts) metrics_.cohorts->Inc();
  if (metrics_.combined) metrics_.combined->Inc(cohort.size() - 1);
  if (metrics_.max_cohort && size > metrics_.max_cohort->Value()) {
    metrics_.max_cohort->Set(size);
  }

  mu_.Lock();
  for (Request* r : cohort) {
    if (!sealed.ok() && r->result.ok()) r->result = sealed;
    r->lead_us = lead_us;
    r->applied_us = applied_us;
    r->sealed_us = sealed_us;
    r->cohort_id = cohort_id;
    r->cohort_size = static_cast<uint32_t>(cohort.size());
    r->done = true;
    r->cv.NotifyOne();
  }
  // One cohort per leader: pass the baton so a hot queue cannot pin one
  // committer into combining forever.
  if (!queue_.empty()) {
    queue_.front()->leader = true;
    queue_.front()->cv.NotifyOne();
  } else {
    leader_active_ = false;
  }
}

size_t CommitQueue::Pending() const {
  MutexLock l(mu_);
  return queue_.size();
}

}  // namespace cpdb::service
