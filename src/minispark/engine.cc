#include "minispark/engine.h"

#include <algorithm>
#include <cstddef>
#include <map>
#include <vector>

#include "common/random.h"
#include "minispark/memory_manager.h"

namespace juggler::minispark {

double RunResult::FractionPartitionsResident() const {
  int64_t cached = 0;
  int64_t resident = 0;
  for (const auto& [id, stats] : dataset_stats) {
    if (!stats.persisted_at_end) continue;
    cached += stats.distinct_cached;
    resident += stats.resident_at_end;
  }
  if (cached == 0) return 1.0;
  const double frac =
      static_cast<double>(resident) / static_cast<double>(cached);
  return frac > 1.0 ? 1.0 : frac;
}

double RunResult::FractionPartitionsNeverEvicted() const {
  int64_t cached = 0;
  int64_t evicted = 0;
  for (const auto& [id, stats] : dataset_stats) {
    cached += stats.distinct_cached;
    evicted += stats.distinct_evicted;
  }
  if (cached == 0) return 1.0;
  const double frac = 1.0 - static_cast<double>(evicted) / static_cast<double>(cached);
  return frac < 0.0 ? 0.0 : frac;
}

namespace {

/// Re-execution cascades deeper than this abort the run: with sane loss
/// probabilities a chain of lost parents bottoms out in a few hops; an
/// unbounded cascade (adversarial loss probability ~1) must terminate with a
/// typed error, not a hang.
constexpr int kMaxRecoveryDepth = 16;

/// A physical stage: the unit Spark schedules. Tasks of a stage compute
/// partitions of `terminal`, pipelining all narrow transformations in
/// `members` (deepest-first), starting from either source data, shuffle
/// output of `parent_stage_terminals`, or cached blocks.
struct Stage {
  DatasetId terminal = kInvalidDataset;
  /// Datasets evaluated within this stage (narrow chain plus the wide
  /// chain-start, if any), in no particular order.
  std::vector<DatasetId> members;
  /// Terminals of stages that must run before this one (wide parents).
  std::vector<DatasetId> parent_stage_terminals;
  /// Shuffle-write work this stage performs for wide children, as
  /// (wide child id, bytes written per task).
  std::vector<std::pair<DatasetId, double>> shuffle_writes;
};

/// One cost piece of a task, in evaluation order. Pieces become profiling
/// records when instrumenting.
struct Piece {
  DatasetId dataset = kInvalidDataset;
  TransformPart part = TransformPart::kMain;
  double ms = 0.0;
  double bytes = 0.0;       ///< Produced partition size.
  bool from_cache = false;
};

/// One bit per (dataset, partition index). The width is the widest
/// dataset's partition count: a narrow chain passes its task index down to
/// every parent, so no partition index a run sees exceeds it.
class PartitionBitmap {
 public:
  PartitionBitmap(int datasets, int width)
      : words_per_row_((static_cast<size_t>(width) + 63) / 64),
        words_(static_cast<size_t>(datasets) * words_per_row_, 0) {}

  bool Contains(DatasetId d, int partition) const {
    return (words_[Word(d, partition)] & Bit(partition)) != 0;
  }
  /// Returns true if the bit was clear.
  bool Insert(DatasetId d, int partition) {
    uint64_t& word = words_[Word(d, partition)];
    const bool inserted = (word & Bit(partition)) == 0;
    word |= Bit(partition);
    return inserted;
  }
  /// Returns true if the bit was set.
  bool Erase(DatasetId d, int partition) {
    uint64_t& word = words_[Word(d, partition)];
    const bool erased = (word & Bit(partition)) != 0;
    word &= ~Bit(partition);
    return erased;
  }

 private:
  size_t Word(DatasetId d, int partition) const {
    return static_cast<size_t>(d) * words_per_row_ +
           static_cast<size_t>(partition) / 64;
  }
  static uint64_t Bit(int partition) {
    return uint64_t{1} << (static_cast<unsigned>(partition) % 64);
  }

  size_t words_per_row_;
  std::vector<uint64_t> words_;
};

int MaxPartitions(const Application& app) {
  int width = 1;
  for (const Dataset& d : app.datasets) width = std::max(width, d.num_partitions);
  return width;
}

struct MachineState {
  explicit MachineState(const ClusterConfig& cluster)
      : mem(cluster.UnifiedMemoryPerMachine(), cluster.MinStoragePerMachine()),
        core_free_ms(static_cast<size_t>(cluster.cores_per_machine), 0.0) {}

  UnifiedMemoryManager mem;
  std::vector<double> core_free_ms;
};

/// Whole-run mutable state threaded through job/stage execution.
///
/// Everything a task touches is dense and sized once per run (per-dataset
/// vectors and bitmaps, reused buffers), so the per-task path allocates
/// nothing; the std::map result shape is built only in Finish().
class RunState {
 public:
  RunState(const Application& app, const ClusterConfig& cluster,
           const CachePlan& plan, const RunOptions& options)
      : app_(app),
        cluster_(cluster),
        plan_(plan),
        options_(options),
        fault_plan_(options.faults),
        rng_(options.seed),
        max_partitions_(MaxPartitions(app)),
        ever_stored_(app.num_datasets(), max_partitions_),
        lost_pending_(app.num_datasets(), max_partitions_),
        materialized_(static_cast<size_t>(app.num_datasets()), false),
        persisted_(static_cast<size_t>(app.num_datasets()), false),
        drop_with_(static_cast<size_t>(app.num_datasets())),
        stage_of_terminal_(static_cast<size_t>(app.num_datasets()), -1),
        shuffle_host_count_(static_cast<size_t>(app.num_datasets()), 0),
        shuffle_lost_(static_cast<size_t>(app.num_datasets()) *
                          static_cast<size_t>(cluster.num_machines),
                      0),
        shuffle_lost_count_(static_cast<size_t>(app.num_datasets()), 0),
        machine_ready_ms_(static_cast<size_t>(cluster.num_machines), 0.0),
        granted_(static_cast<size_t>(cluster.num_machines), 0.0),
        spill_factor_(static_cast<size_t>(cluster.num_machines), 1.0),
        stats_(static_cast<size_t>(app.num_datasets())),
        stats_touched_(static_cast<size_t>(app.num_datasets()), false) {
    for (DatasetId d : plan.PersistedDatasets()) {
      persisted_[static_cast<size_t>(d)] = true;
      drop_with_[static_cast<size_t>(d)] = plan.UnpersistBefore(d);
    }
    machines_.reserve(static_cast<size_t>(cluster.num_machines));
    for (int m = 0; m < cluster.num_machines; ++m) {
      machines_.emplace_back(cluster);
    }
    if (options.instrument) {
      profile_ = std::make_shared<ProfilingDb>();
      profile_->SetClusterShape(cluster.num_machines, cluster.cores_per_machine);
      for (const Dataset& d : app.datasets) {
        profile_->AddDataset(
            DatasetRecord{d.id, d.name, d.kind, d.parents, d.num_partitions});
      }
    }
  }

  [[nodiscard]] Status ExecuteAll();
  RunResult Finish();

 private:
  [[nodiscard]] Status ExecuteJob(int job_index);

  /// Creates the stage computing `root` (and, recursively, its wide-parent
  /// stages) unless it exists; returns its index. `stage_of_terminal_` maps
  /// every created stage's terminal to its index until the job ends.
  int CreateStage(DatasetId root, std::vector<Stage>* stages);

  /// Appends stage `s` after its parent stages (DFS post-order).
  void TopoVisit(const std::vector<Stage>& stages, int s);

  /// Executes one stage at a named point: assigns a fresh stage id, fires
  /// the fault plan's executor losses for it, re-executes parents whose
  /// shuffle output was lost, then runs the tasks. Returns the stage end
  /// time, or kAborted (task attempts exhausted / recovery cascade too
  /// deep).
  [[nodiscard]] StatusOr<double> ExecuteStage(const std::vector<Stage>& stages,
                                              int stage_index, int job_index,
                                              double start_ms, int depth);

  /// Runs the stage's tasks (all of them, or — on a re-execution — only the
  /// tasks on machines flagged in `only_machines`, one flag per machine).
  [[nodiscard]] StatusOr<double> ExecuteStageTasks(
      const Stage& stage, int job_index, int stage_id, double start_ms,
      const char* only_machines);

  /// Fires the fault plan's executor losses scheduled at (job, stage):
  /// drops the machines' cached blocks as *lost*, marks their hosted
  /// shuffle outputs lost, and delays their cores by the relaunch time.
  void ApplyExecutorLosses(int job_index, int stage_id, double now_ms);

  /// Recursively resolves the cost of obtaining partition `partition` of
  /// dataset `d` on machine `m`, appending cost pieces in evaluation order.
  void ResolveChain(DatasetId d, int partition, MachineState& machine,
                    std::vector<Piece>* pieces);

  bool FullyCached(DatasetId d) const {
    int blocks = 0;
    for (const auto& m : machines_) blocks += m.mem.NumBlocksOf(d);
    return blocks >= app_.dataset(d).num_partitions;
  }

  int MachineFor(int partition) const {
    return partition % cluster_.num_machines;
  }

  /// The per-dataset stats entry; marks the dataset as reported.
  DatasetCacheStats& Stats(DatasetId d) {
    stats_touched_[static_cast<size_t>(d)] = true;
    return stats_[static_cast<size_t>(d)];
  }

  /// Row of shuffle_lost_: one flag per machine for `terminal`'s outputs.
  char* LostHosts(DatasetId terminal) {
    return &shuffle_lost_[static_cast<size_t>(terminal) *
                          static_cast<size_t>(cluster_.num_machines)];
  }
  void ClearLostHosts(DatasetId terminal) {
    std::fill_n(LostHosts(terminal), cluster_.num_machines, 0);
    shuffle_lost_count_[static_cast<size_t>(terminal)] = 0;
  }

  const Application& app_;
  const ClusterConfig& cluster_;
  const CachePlan& plan_;
  const RunOptions& options_;
  FaultPlan fault_plan_;
  Rng rng_;
  const int max_partitions_;

  std::vector<MachineState> machines_;
  /// Partitions of each dataset that were cached at some point
  /// (distinguishes first materialization from eviction recompute).
  PartitionBitmap ever_stored_;
  /// Partitions dropped by executor loss and not yet recomputed — the
  /// recompute that clears a bit counts as `partitions_recomputed_after_loss`.
  PartitionBitmap lost_pending_;
  std::vector<bool> materialized_;
  /// Dynamic persist state: true while p(d) is in effect; cleared when a
  /// u(d) op triggers (an unpersisted dataset is never re-stored).
  std::vector<bool> persisted_;
  /// drop_with_[y]: datasets to unpersist while y first materializes.
  std::vector<std::vector<DatasetId>> drop_with_;

  /// Current job's stage index per terminal dataset (-1 outside the job),
  /// and the job's stage order; CreateStage/TopoVisit scratch.
  std::vector<int> stage_of_terminal_;
  std::vector<int> stage_order_;
  std::vector<char> visit_state_;  // 0=unseen 1=visiting 2=done
  std::vector<DatasetId> member_stack_;

  /// Shuffle-output bookkeeping for stage re-execution. A completed
  /// shuffle-writing stage with terminal t hosts its map outputs on machines
  /// [0, shuffle_host_count_[t]) (task i runs on machine i % machines);
  /// LostHosts(t) flags those hosts that have died since.
  std::vector<int> shuffle_host_count_;
  std::vector<char> shuffle_lost_;
  std::vector<int> shuffle_lost_count_;

  /// Absolute time before which a machine's cores accept no tasks (executor
  /// relaunch after an injected loss).
  std::vector<double> machine_ready_ms_;

  /// ExecuteStageTasks scratch, reused across stages and tasks.
  std::vector<double> granted_;
  std::vector<double> spill_factor_;
  std::vector<DatasetId> cleanup_;
  std::vector<Piece> pieces_;

  double now_ms_ = 0.0;
  int next_stage_id_ = 0;

  // Aggregated stats. Only touched datasets appear in the result, matching
  // the keys a std::map filled on first access would have.
  std::vector<DatasetCacheStats> stats_;
  std::vector<bool> stats_touched_;
  int64_t hits_ = 0;
  int64_t recomputes_ = 0;
  int64_t tasks_retried_ = 0;
  int64_t stages_reexecuted_ = 0;
  int64_t executors_lost_ = 0;
  int64_t partitions_lost_ = 0;
  int64_t recomputed_after_loss_ = 0;
  int64_t speculative_launched_ = 0;
  int64_t speculative_wins_ = 0;

  std::shared_ptr<ProfilingDb> profile_;
};

int RunState::CreateStage(DatasetId root, std::vector<Stage>* stages) {
  if (const int existing = stage_of_terminal_[static_cast<size_t>(root)];
      existing >= 0) {
    return existing;
  }
  const int index = static_cast<int>(stages->size());
  stages->push_back(Stage{});
  stage_of_terminal_[static_cast<size_t>(root)] = index;
  (*stages)[static_cast<size_t>(index)].terminal = root;

  // Depth-first walk of the narrow chain. The stack is shared with the
  // nested calls for wide parents, each of which pops exactly what it
  // pushed; this call's part starts at `base`. A dataset already visited in
  // this stage is either a member or still on this part of the stack.
  const size_t base = member_stack_.size();
  member_stack_.push_back(root);
  while (member_stack_.size() > base) {
    const DatasetId id = member_stack_.back();
    member_stack_.pop_back();
    (*stages)[static_cast<size_t>(index)].members.push_back(id);
    const Dataset& ds = app_.dataset(id);
    if (ds.kind == TransformKind::kWide) {
      // The wide dataset reads shuffle output; its parents terminate
      // parent stages. If the wide dataset is fully cached, Spark skips
      // the parent stages entirely.
      if (plan_.IsPersisted(id) && FullyCached(id)) continue;
      for (DatasetId p : ds.parents) {
        const int parent_index = CreateStage(p, stages);
        Stage& self = (*stages)[static_cast<size_t>(index)];
        self.parent_stage_terminals.push_back(
            (*stages)[static_cast<size_t>(parent_index)].terminal);
        // Parent stage writes this wide child's shuffle input.
        (*stages)[static_cast<size_t>(parent_index)].shuffle_writes.push_back(
            {id, app_.dataset(p).PartitionBytes()});
      }
    } else {
      const std::vector<DatasetId>& members =
          (*stages)[static_cast<size_t>(index)].members;
      for (DatasetId p : ds.parents) {
        const auto pending = member_stack_.begin() +
                             static_cast<std::ptrdiff_t>(base);
        if (std::find(members.begin(), members.end(), p) == members.end() &&
            std::find(pending, member_stack_.end(), p) == member_stack_.end()) {
          member_stack_.push_back(p);
        }
      }
    }
  }
  return index;
}

void RunState::TopoVisit(const std::vector<Stage>& stages, int s) {
  if (visit_state_[static_cast<size_t>(s)]) return;
  visit_state_[static_cast<size_t>(s)] = 1;
  for (DatasetId pt : stages[static_cast<size_t>(s)].parent_stage_terminals) {
    TopoVisit(stages, stage_of_terminal_[static_cast<size_t>(pt)]);
  }
  visit_state_[static_cast<size_t>(s)] = 2;
  stage_order_.push_back(s);
}

void RunState::ResolveChain(DatasetId d, int partition, MachineState& machine,
                            std::vector<Piece>* pieces) {
  const Dataset& ds = app_.dataset(d);
  const BlockId bid{d, partition};
  const bool persisted = persisted_[static_cast<size_t>(d)];

  if (persisted && machine.mem.TouchBlock(bid)) {
    ++hits_;
    ++Stats(d).hits;
    pieces->push_back(Piece{d, TransformPart::kMain,
                            ds.PartitionBytes() / cluster_.cache_bandwidth,
                            ds.PartitionBytes(), true});
    return;
  }

  switch (ds.kind) {
    case TransformKind::kSource:
      pieces->push_back(Piece{d, TransformPart::kMain,
                              ds.PartitionBytes() / cluster_.disk_bandwidth,
                              ds.PartitionBytes(), false});
      break;
    case TransformKind::kWide: {
      double in_bytes = 0.0;
      for (DatasetId p : ds.parents) in_bytes += app_.dataset(p).bytes;
      in_bytes /= ds.num_partitions;
      const double ms = in_bytes / cluster_.network_bandwidth +
                        ds.PartitionComputeMs() / cluster_.cpu_speed;
      pieces->push_back(Piece{d, TransformPart::kShuffleRead, ms,
                              ds.PartitionBytes(), false});
      break;
    }
    case TransformKind::kNarrow: {
      for (DatasetId p : ds.parents) ResolveChain(p, partition, machine, pieces);
      pieces->push_back(Piece{d, TransformPart::kMain,
                              ds.PartitionComputeMs() / cluster_.cpu_speed,
                              ds.PartitionBytes(), false});
      break;
    }
  }

  if (persisted) {
    const bool was_cached_before = ever_stored_.Contains(d, partition);
    if (was_cached_before) {
      // This partition had been cached and was evicted or lost: the read is
      // a recomputation (paper §1's 97x-slower case). Recomputation walks
      // the same lineage as the first materialization, so the rebuilt
      // partition is bit-identical in size and provenance to the original.
      ++recomputes_;
      ++Stats(d).recomputes;
      if (lost_pending_.Erase(d, partition)) {
        // Specifically a failure-driven recompute (executor loss), not a
        // memory-pressure one.
        ++recomputed_after_loss_;
        ++Stats(d).recomputed_after_loss;
      }
    }
    if (machine.mem.StoreBlock(bid, ds.PartitionBytes())) {
      ++Stats(d).stored;
    }
    if (!was_cached_before) {
      ever_stored_.Insert(d, partition);
      ++Stats(d).distinct_cached;
    }
    // Block-wise unpersist: as this dataset's partitions materialize, the
    // corresponding partitions of the datasets scheduled for u() before it
    // are dropped, so the two never fully coexist (the §5.1 cost is
    // max(sizes), not their sum).
    for (DatasetId drop : drop_with_[static_cast<size_t>(d)]) {
      machine.mem.DropBlock(BlockId{drop, partition});
    }
  }
}

void RunState::ApplyExecutorLosses(int job_index, int stage_id,
                                   double now_ms) {
  if (!fault_plan_.enabled() ||
      fault_plan_.spec().executor_loss_prob <= 0.0) {
    return;
  }
  for (size_t m = 0; m < machines_.size(); ++m) {
    if (!fault_plan_.ExecutorLost(job_index, stage_id, static_cast<int>(m))) {
      continue;
    }
    ++executors_lost_;
    machine_ready_ms_[m] = std::max(
        machine_ready_ms_[m], now_ms + cluster_.executor_relaunch_ms);
    for (const BlockId& b : machines_[m].mem.LoseAllBlocks()) {
      ++partitions_lost_;
      ++Stats(b.dataset).lost;
      lost_pending_.Insert(b.dataset, b.partition);
    }
    for (size_t t = 0; t < shuffle_host_count_.size(); ++t) {
      if (static_cast<int>(m) >= shuffle_host_count_[t]) continue;
      char& lost = LostHosts(static_cast<DatasetId>(t))[m];
      if (!lost) {
        lost = 1;
        ++shuffle_lost_count_[t];
      }
    }
  }
}

StatusOr<double> RunState::ExecuteStage(const std::vector<Stage>& stages,
                                        int stage_index, int job_index,
                                        double start_ms, int depth) {
  if (depth > kMaxRecoveryDepth) {
    return Status::Aborted(
        "stage recovery cascade exceeded depth " +
        std::to_string(kMaxRecoveryDepth) + " in job " +
        std::to_string(job_index) +
        " (executor losses keep destroying re-executed shuffle output)");
  }
  const Stage& stage = stages[static_cast<size_t>(stage_index)];
  const int stage_id = next_stage_id_++;

  // Fire the fault plan's losses scheduled at this named point, *before*
  // checking parents: a loss here may be what destroys a parent's output.
  ApplyExecutorLosses(job_index, stage_id, start_ms);

  // Spark semantics: a missing-shuffle fetch failure re-submits the parent
  // stage for the lost map outputs only, then retries this stage.
  for (DatasetId pt : stage.parent_stage_terminals) {
    if (shuffle_lost_count_[static_cast<size_t>(pt)] == 0) continue;
    ++stages_reexecuted_;
    const int parent_index = stage_of_terminal_[static_cast<size_t>(pt)];
    const int parent_stage_id = next_stage_id_++;
    ApplyExecutorLosses(job_index, parent_stage_id, start_ms);
    // A loss fired during the re-submission may have grown the lost set of
    // the parent's own parents; recover those first.
    const Stage& parent = stages[static_cast<size_t>(parent_index)];
    for (DatasetId grand : parent.parent_stage_terminals) {
      if (shuffle_lost_count_[static_cast<size_t>(grand)] == 0) continue;
      // Delegate to a full recursive execution of the grandparent repair by
      // re-running this loop's machinery one level down.
      auto repaired =
          ExecuteStage(stages, parent_index, job_index, start_ms, depth + 1);
      if (!repaired.ok()) return repaired.status();
      start_ms = *repaired;
      break;
    }
    // Re-run only the parent tasks whose output lived on the dead hosts
    // (the relaunched executors pick their old partitions back up). Re-read
    // the lost set now: the re-submission's own losses above may have grown
    // it, and the grandparent repair may have cleared it entirely.
    if (shuffle_lost_count_[static_cast<size_t>(pt)] > 0) {
      auto reexec = ExecuteStageTasks(parent, job_index, parent_stage_id,
                                      start_ms, LostHosts(pt));
      if (!reexec.ok()) return reexec.status();
      start_ms = *reexec;
      ClearLostHosts(pt);
    }
  }

  return ExecuteStageTasks(stage, job_index, stage_id, start_ms,
                           /*only_machines=*/nullptr);
}

StatusOr<double> RunState::ExecuteStageTasks(const Stage& stage, int job_index,
                                             int stage_id, double start_ms,
                                             const char* only_machines) {
  const Dataset& terminal = app_.dataset(stage.terminal);
  const int num_tasks = terminal.num_partitions;

  // Unpersist triggers: when a persisted dataset first materializes in this
  // stage, the datasets scheduled for u() before it stop being persisted
  // (no re-stores) and their blocks are dropped partition-by-partition as
  // the successor's blocks land (see ResolveChain); any leftovers are
  // cleaned up after the stage.
  cleanup_.clear();
  for (DatasetId member : stage.members) {
    if (!persisted_[static_cast<size_t>(member)]) continue;
    if (materialized_[static_cast<size_t>(member)]) continue;
    materialized_[static_cast<size_t>(member)] = true;
    for (DatasetId drop : drop_with_[static_cast<size_t>(member)]) {
      persisted_[static_cast<size_t>(drop)] = false;
      cleanup_.push_back(drop);
    }
  }

  // Execution-memory pressure: each concurrently running task reserves the
  // pipeline's peak requirement for the whole stage.
  double exec_per_task = 0.0;
  for (DatasetId member : stage.members) {
    exec_per_task = std::max(
        exec_per_task, app_.dataset(member).exec_memory_per_task_bytes);
  }
  std::fill(granted_.begin(), granted_.end(), 0.0);
  std::fill(spill_factor_.begin(), spill_factor_.end(), 1.0);
  for (size_t m = 0; m < machines_.size(); ++m) {
    const double want =
        exec_per_task * static_cast<double>(cluster_.cores_per_machine);
    if (want <= 0.0) continue;
    granted_[m] = machines_[m].mem.AcquireExecution(want);
    const double shortfall = (want - granted_[m]) / want;
    spill_factor_[m] = 1.0 + options_.spill_compute_penalty * shortfall;
  }

  for (size_t m = 0; m < machines_.size(); ++m) {
    // A machine whose executor is mid-relaunch joins the stage late.
    std::fill(machines_[m].core_free_ms.begin(),
              machines_[m].core_free_ms.end(),
              std::max(start_ms, machine_ready_ms_[m]));
  }

  if (profile_) {
    profile_->AddStage(StageRecord{job_index, stage_id, stage.terminal, num_tasks});
  }

  const double instr_factor =
      options_.instrument ? 1.0 + options_.instrumentation_overhead : 1.0;
  const int max_attempts = std::max(1, options_.faults.max_task_attempts);

  for (int t = 0; t < num_tasks; ++t) {
    const int machine_index = MachineFor(t);
    if (only_machines != nullptr && !only_machines[machine_index]) {
      continue;  // Re-execution repairs only the lost hosts' outputs.
    }
    MachineState& machine = machines_[static_cast<size_t>(machine_index)];

    // Retry schedule first: an exhausted task aborts the run before its
    // attempts touch any cache state.
    int failed_attempts = 0;
    if (fault_plan_.enabled() &&
        fault_plan_.spec().task_failure_prob > 0.0) {
      while (failed_attempts < max_attempts &&
             fault_plan_.TaskFails(job_index, stage_id, t, failed_attempts)) {
        ++failed_attempts;
      }
      if (failed_attempts >= max_attempts) {
        return Status::Aborted(
            "task " + TaskCoord{job_index, stage_id, t}.ToString() +
            " (dataset '" + terminal.name + "') failed " +
            std::to_string(max_attempts) +
            " attempts; giving up (spark.task.maxFailures)");
      }
    }

    pieces_.clear();
    ResolveChain(stage.terminal, t, machine, &pieces_);
    for (const auto& [wide_child, bytes] : stage.shuffle_writes) {
      pieces_.push_back(Piece{wide_child, TransformPart::kShuffleWrite,
                              bytes / cluster_.disk_bandwidth, 0.0, false});
    }

    double work_ms = 0.0;
    for (const Piece& piece : pieces_) work_ms += piece.ms;

    double scale = spill_factor_[static_cast<size_t>(machine_index)];
    if (options_.noise_sigma > 0.0) scale *= rng_.Jitter(options_.noise_sigma);
    if (options_.straggler_prob > 0.0 &&
        rng_.Bernoulli(options_.straggler_prob)) {
      scale *= options_.straggler_factor;
    }
    if (fault_plan_.enabled()) {
      scale *= fault_plan_.StragglerFactor(job_index, stage_id, t);
    }
    scale *= instr_factor;

    // Earliest-free core on the task's machine; failed attempts occupy it
    // serially before the successful attempt starts (Spark re-schedules a
    // failed task with locality preference for the same data).
    auto core = std::min_element(machine.core_free_ms.begin(),
                                 machine.core_free_ms.end());
    double cursor = *core;
    for (int a = 0; a < failed_attempts; ++a) {
      const double frac = fault_plan_.FailureFraction(job_index, stage_id, t, a);
      const double fail_start = cursor;
      cursor += cluster_.task_overhead_ms + work_ms * scale * frac;
      ++tasks_retried_;
      if (profile_) {
        profile_->AddTask(TaskRecord{job_index, stage_id, t, machine_index,
                                     fail_start, cursor, a,
                                     /*speculative=*/false, /*failed=*/true});
      }
    }

    const double task_start = cursor;
    cursor += cluster_.task_overhead_ms;
    if (profile_) {
      for (const Piece& piece : pieces_) {
        const double dur = piece.ms * scale;
        profile_->AddTransform(TransformRecord{job_index, stage_id, t,
                                               piece.dataset, piece.part,
                                               cursor, cursor + dur,
                                               piece.bytes, piece.from_cache});
        cursor += dur;
      }
    } else {
      cursor += work_ms * scale;
    }
    const double task_finish = cursor;

    // Speculative execution: a task that overruns its clean estimate gets a
    // duplicate on the next machine; the earlier finisher wins and the
    // loser is killed at that moment.
    double effective_finish = task_finish;
    bool original_killed = false;
    if (fault_plan_.enabled() && options_.faults.speculation &&
        machines_.size() > 1) {
      const double clean_ms =
          cluster_.task_overhead_ms +
          work_ms * spill_factor_[static_cast<size_t>(machine_index)] *
              instr_factor;
      const double detect_ms =
          task_start + clean_ms * options_.faults.speculation_multiplier;
      if (task_finish > detect_ms) {
        const size_t spec_machine =
            (static_cast<size_t>(machine_index) + 1) % machines_.size();
        auto spec_core =
            std::min_element(machines_[spec_machine].core_free_ms.begin(),
                             machines_[spec_machine].core_free_ms.end());
        const double spec_start = std::max(
            {detect_ms, *spec_core, machine_ready_ms_[spec_machine]});
        if (spec_start < task_finish) {
          ++speculative_launched_;
          const double spec_finish =
              spec_start + cluster_.task_overhead_ms +
              work_ms * spill_factor_[spec_machine] * instr_factor;
          if (spec_finish < task_finish) {
            ++speculative_wins_;
            effective_finish = spec_finish;
            original_killed = true;
          }
          *spec_core = effective_finish;  // Loser killed when winner lands.
          if (profile_) {
            profile_->AddTask(TaskRecord{
                job_index, stage_id, t, static_cast<int>(spec_machine),
                spec_start, effective_finish, failed_attempts,
                /*speculative=*/true, /*failed=*/!original_killed});
          }
        }
      }
    }

    if (profile_) {
      profile_->AddTask(TaskRecord{job_index, stage_id, t, machine_index,
                                   task_start, effective_finish,
                                   failed_attempts, /*speculative=*/false,
                                   /*failed=*/original_killed});
    }
    *core = effective_finish;
  }

  double end_ms = start_ms;
  for (const auto& m : machines_) {
    for (double core : m.core_free_ms) end_ms = std::max(end_ms, core);
  }

  for (size_t m = 0; m < machines_.size(); ++m) {
    if (granted_[m] > 0.0) machines_[m].mem.ReleaseExecution(granted_[m]);
  }
  for (DatasetId drop : cleanup_) {
    for (auto& m : machines_) m.mem.DropDataset(drop);
  }

  // A full execution of a shuffle-writing stage (re)establishes its map
  // outputs on the machines that ran its tasks: task t ran on t % machines.
  if (!stage.shuffle_writes.empty() && only_machines == nullptr) {
    shuffle_host_count_[static_cast<size_t>(stage.terminal)] =
        std::min(num_tasks, cluster_.num_machines);
    ClearLostHosts(stage.terminal);
  }

  // Stage launch latency plus all-to-all shuffle coordination that grows
  // with the cluster size (the paper's area-B overhead).
  end_ms += 5.0;
  if (!stage.parent_stage_terminals.empty()) {
    end_ms += cluster_.shuffle_latency_ms * cluster_.num_machines;
  }
  return end_ms;
}

Status RunState::ExecuteJob(int job_index) {
  const Job& job = app_.jobs[static_cast<size_t>(job_index)];
  const double job_start = now_ms_;

  std::vector<Stage> stages;
  CreateStage(job.target, &stages);

  // Topological order: parents before children. Stage creation pushes a
  // child before its parents, so execute in dependency order via DFS.
  stage_order_.clear();
  visit_state_.assign(stages.size(), 0);
  TopoVisit(stages, 0);

  for (int s : stage_order_) {
    auto end = ExecuteStage(stages, s, job_index, now_ms_, /*depth=*/0);
    if (!end.ok()) return end.status();
    now_ms_ = *end;
  }
  for (const Stage& stage : stages) {
    stage_of_terminal_[static_cast<size_t>(stage.terminal)] = -1;
  }

  // Serial driver work + result transfer back to the driver.
  now_ms_ += cluster_.job_serial_ms;
  now_ms_ += job.result_bytes / cluster_.network_bandwidth;

  if (profile_) {
    profile_->AddJob(JobRecord{job_index, job.name, job.target, job_start, now_ms_});
  }
  return Status::OK();
}

Status RunState::ExecuteAll() {
  for (int j = 0; j < static_cast<int>(app_.jobs.size()); ++j) {
    JUGGLER_RETURN_IF_ERROR(ExecuteJob(j));
  }
  return Status::OK();
}

RunResult RunState::Finish() {
  RunResult result;
  result.app_name = app_.name;
  result.machines = cluster_.num_machines;
  result.duration_ms = now_ms_;
  result.cache_hits = hits_;
  result.cache_recomputes = recomputes_;
  result.tasks_retried = tasks_retried_;
  result.stages_reexecuted = stages_reexecuted_;
  result.executors_lost = executors_lost_;
  result.partitions_lost = partitions_lost_;
  result.partitions_recomputed_after_loss = recomputed_after_loss_;
  result.speculative_launched = speculative_launched_;
  result.speculative_wins = speculative_wins_;

  // Distinct evictions per dataset, collected from every machine's memory
  // manager (evictions and rejections both count: the partition is not in
  // memory when next needed).
  PartitionBitmap evicted(app_.num_datasets(), max_partitions_);
  std::vector<int64_t> distinct_evicted(
      static_cast<size_t>(app_.num_datasets()), 0);
  for (const auto& m : machines_) {
    result.blocks_evicted += m.mem.blocks_evicted();
    result.store_rejections += m.mem.store_rejections();
    result.peak_execution_bytes =
        std::max(result.peak_execution_bytes, m.mem.peak_execution_used());
    for (const BlockId& b : m.mem.evicted_blocks()) {
      if (evicted.Insert(b.dataset, b.partition)) {
        ++distinct_evicted[static_cast<size_t>(b.dataset)];
      }
    }
  }
  for (int d = 0; d < app_.num_datasets(); ++d) {
    const auto i = static_cast<size_t>(d);
    if (distinct_evicted[i] > 0) Stats(d).distinct_evicted = distinct_evicted[i];
    if (!stats_touched_[i]) continue;
    DatasetCacheStats& stats = stats_[i];
    if (persisted_[i]) {
      stats.persisted_at_end = true;
      for (const auto& m : machines_) stats.resident_at_end += m.mem.NumBlocksOf(d);
    }
    result.dataset_stats.emplace_hint(result.dataset_stats.end(), d, stats);
  }
  result.profile = std::move(profile_);
  return result;
}

}  // namespace

StatusOr<RunResult> Engine::Run(const Application& app,
                                const ClusterConfig& cluster,
                                const CachePlan& plan) const {
  JUGGLER_RETURN_IF_ERROR(Validate(app));
  if (cluster.num_machines <= 0 || cluster.cores_per_machine <= 0) {
    return Status::InvalidArgument("cluster must have machines and cores");
  }
  JUGGLER_RETURN_IF_ERROR(options_.faults.Validate());
  for (const CacheOp& op : plan.ops) {
    if (op.dataset < 0 || op.dataset >= app.num_datasets()) {
      return Status::InvalidArgument("cache plan references unknown dataset " +
                                     std::to_string(op.dataset));
    }
  }
  RunState state(app, cluster, plan, options_);
  JUGGLER_RETURN_IF_ERROR(state.ExecuteAll());
  return state.Finish();
}

}  // namespace juggler::minispark
