(** The pre-parallel exhaustive explorer, kept as the reference model
    for {!Rsim_explore.Explore.exhaustive}: a single-domain DFS that
    re-executes every schedule prefix from scratch (effect continuations
    are one-shot), O(L²) executions per leaf, and re-executes each leaf
    once more to judge it. Same report shape as the engine, with
    [dedup_hits] 0 and [domains] 1; a violation is shrunk, dropped if
    its shrunk script is already recorded, and re-judged, as in the
    engine. *)

open Rsim_explore

val exhaustive :
  ?max_steps:int ->
  ?preemption_bound:int ->
  ?max_violations:int ->
  Explore.workload ->
  Explore.exhaustive_report
