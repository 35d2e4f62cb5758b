#include "service/engine.h"

namespace cpdb::service {

void Engine::WireMetrics() {
  // --- Commit-pipeline latency histograms (sinks wired into the layers
  // that own the measured sections; see each set_metrics contract).
  latch_.set_metrics(
      metrics_.GetHistogram("cpdb_latch_shared_wait_us",
                            "Contended shared-latch acquire wait (us)", "",
                            "latch_shared_wait_us"),
      metrics_.GetHistogram("cpdb_latch_excl_wait_us",
                            "Exclusive-latch acquire wait (us) - the "
                            "group-commit combining window",
                            "", "latch_excl_wait_us"));

  // Series with a json_key are the STATS contract (OPERATOR_GUIDE.md):
  // the server's StatsJson() renders from this registry, so the keys
  // here ARE the wire fields.
  auto counter = [this](const char* name, const char* help,
                        const char* json_key) {
    return metrics_.GetCounter(name, help, "", json_key);
  };
  auto stage = [this](const char* name, const char* json_key) {
    return metrics_.GetHistogram("cpdb_commit_stage_us",
                                 "Commit pipeline stage duration (us)",
                                 std::string("stage=\"") + name + "\"",
                                 json_key);
  };
  CommitQueue::Metrics qm;
  qm.queue_us = stage("queue", "commit_queue_us");
  qm.apply_us = stage("apply", "commit_apply_us");
  qm.seal_us = stage("seal", "commit_seal_us");
  qm.wake_us = stage("wake", "commit_wake_us");
  qm.total_us = stage("total", "commit_total_us");
  qm.cohort_size = metrics_.GetHistogram(
      "cpdb_commit_cohort_size", "Members per group-commit cohort", "",
      "cohort_size");
  qm.commits = counter("cpdb_commits_total", "Transactions committed",
                       "commits");
  qm.cohorts = counter("cpdb_cohorts_total", "Group-commit cohorts sealed",
                       "cohorts");
  qm.combined = counter("cpdb_combined_total",
                        "Commits that rode another leader's seal",
                        "combined");
  qm.max_cohort = metrics_.GetGauge(
      "cpdb_max_cohort", "Largest cohort sealed so far", "", "max_cohort");
  queue_.set_metrics(qm);

  SnapshotManager::Metrics vm;
  vm.live = metrics_.GetGauge("cpdb_versions_live",
                              "Committed-state versions in the chain", "",
                              "versions_live");
  vm.published = counter("cpdb_versions_published_total",
                         "Committed-state versions published",
                         "versions_published");
  vm.gced = counter("cpdb_versions_gced_total",
                    "Committed-state versions garbage-collected",
                    "versions_gced");
  vm.rebuilds = counter("cpdb_snapshot_rebuilds_total",
                        "Full snapshot materializations", "snapshot_rebuilds");
  vm.rebuild_rows = counter("cpdb_snapshot_rebuild_rows_total",
                            "Rows scanned by full rebuilds",
                            "snapshot_rebuild_rows");
  snapshots_.set_metrics(vm);

  if (backend_->db()->durable()) {
    backend_->db()->durability()->SetMetricSinks(
        metrics_.GetHistogram("cpdb_wal_append_us",
                              "WAL record append wall time (us)", "",
                              "wal_append_us"),
        metrics_.GetHistogram("cpdb_wal_fsync_us",
                              "WAL fsync barrier wall time (us)", "",
                              "wal_fsync_us"));
  }

  // --- Scrape-time callbacks, only over state another owner keeps.
  auto cb = [this](const char* name, const char* help, bool monotonic,
                   std::function<double()> fn, const char* json_key) {
    metrics_.SetCallback(name, help, monotonic, std::move(fn), "", json_key);
  };
  cb("cpdb_commit_queue_depth", "Committers enqueued behind the leader",
     false, [this] { return static_cast<double>(CommitQueueDepth()); },
     "queue_depth");
  cb("cpdb_last_tid", "Largest transaction id allocated", false,
     [this] { return static_cast<double>(LastAllocatedTid()); }, "last_tid");
  cb("cpdb_committed_tid", "Committed-state watermark tid", false,
     [this] { return static_cast<double>(CommittedTid()); }, "committed_tid");
  // The trace store's counts are part of the TRACES document and move
  // under the store's own lock together with its rings.
  cb("cpdb_traces_recorded_total", "Sampled request trace trees recorded",
     true, [this] { return static_cast<double>(spans_.recorded()); },
     "traces_recorded");
  cb("cpdb_slow_queries_total", "Requests past the slow-query threshold",
     true, [this] { return static_cast<double>(spans_.slow_recorded()); },
     "slow_queries");
  const bool durable = backend_->db()->durable();
  cb("cpdb_durable", "1 when a durability engine is attached", false,
     [durable] { return durable ? 1.0 : 0.0; }, "durable");
  if (durable) {
    // Absent entirely on in-memory engines — STATS omits the durability
    // fields there, and a scraper should see no series, not zeros.
    cb("cpdb_fsyncs_total", "fsync barriers issued", true,
       [this] {
         return static_cast<double>(db()->durability()->stats().fsyncs);
       },
       "fsyncs");
    cb("cpdb_log_bytes_total", "Bytes appended to the WAL", true,
       [this] {
         return static_cast<double>(db()->durability()->stats().log_bytes);
       },
       "log_bytes");
    cb("cpdb_replayed_commits_total", "Log records recovery applied", true,
       [this] {
         return static_cast<double>(
             db()->durability()->stats().replayed_commits);
       },
       "replayed_commits");
  }
}

}  // namespace cpdb::service
