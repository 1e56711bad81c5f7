(** Schedulers (adversaries) for asynchronous executions.

    A scheduler repeatedly picks which live process takes the next step.
    Schedulers are pure values: [next] threads the scheduler state, so a
    given scheduler + seed always produces the same execution. They are
    shared by the simulated-system engine ({!Run}) and by the real-system
    fiber runtime. *)

type t

(** [next t ~live] picks a pid among [live] (non-empty, sorted ascending)
    or returns [None] if the schedule is exhausted / refuses to schedule. *)
val next : t -> live:int list -> (int * t) option

(** Cycle through live processes in pid order. *)
val round_robin : t

(** Only ever schedule [pid]; exhausts when [pid] is not live. *)
val solo : int -> t

(** Follow a fixed pid script, skipping entries that are not live;
    exhausts at end of script. [script pids] is {!unfold} over the
    list. *)
val script : int list -> t

(** [unfold step s]: a script whose entries are generated on demand,
    [step s = Some (pid, s')] giving the next entry and the state after
    it, [None] its end. Entries that are not live are skipped, exactly
    as {!script} skips them, so unfolding a generator draws the same
    pids as the script of the list it would generate, while drawing only
    as many entries as the run consumes. *)
val unfold : ('s -> (int * 's) option) -> 's -> t

(** Uniformly random live process each step. *)
val random : seed:int -> t

(** Random schedule over a fixed set of processes (an x-obstruction
    adversary suffix: only processes in [procs] take steps). *)
val among : procs:int list -> seed:int -> t

(** [phased ~prefix_len ~prefix ~suffix]: run [prefix] for [prefix_len]
    steps, then [suffix]. The standard shape of obstruction-freedom
    tests: adversarial prefix, then P-only suffix. *)
val phased : prefix_len:int -> prefix:t -> suffix:t -> t

(** [with_crashes crashes t]: like [t], but process [pid] is removed from
    the live set after it has taken [steps] steps, for each
    [(pid, steps)] in [crashes]. *)
val with_crashes : (int * int) list -> t -> t

(** Fully custom scheduler. The function receives the global step index
    and the live set. *)
val fn : (step:int -> live:int list -> int option) -> t
