(* The benchmark's measurement program. Each invocation makes one
   measurement and prints it as one JSON object on the last line of
   standard output; perfbench/run.py starts one process per measurement,
   takes medians and checks verdicts.

     bench.exe plain  WORKLOAD SEED DOMAINS   untraced run of a workload
     bench.exe traced WORKLOAD SEED DOMAINS   the same run, layer-timed
     bench.exe setup  WORKLOAD SEED DOMAINS   set-up time alone
     bench.exe twin   WORKLOAD SEED DOMAINS   the workload's seeded-bug twin
     bench.exe rung   RUNG SEED               fiber | aug | harness | obs

   The library is used only through its public API. The traced pass
   times each layer from outside: it wraps the closures the exploration
   engine receives (the workload's [exec], the engine's [probe] passed
   into it, the returned [judge], every oracle's [check]) and sums their
   durations in per-domain accumulators. *)

open Core
module J = Obs.Json

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let secs ns = float_of_int ns /. 1e9

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let median = function
  | [] -> 0.
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let per a b = if b = 0 then 0. else float_of_int a /. float_of_int b
let emit fields = print_endline (J.to_string (J.Obj fields))

(* ---------------------------------------------------------------- *)
(* Layer timing: per-domain accumulators                              *)
(* ---------------------------------------------------------------- *)

let max_oracles = 8

type acc = {
  mutable exec_ns : int;
  mutable execs : int;
  mutable checked : int;  (** executions judged inside [exec] *)
  mutable steps : int;
  mutable probe_ns : int;
  mutable probes : int;
  mutable judge_ns : int;
  mutable judges : int;
  mutable in_exec : bool;
  mutable oracle_in_exec_ns : int;
  oracle_ns : int array;  (** indexed by oracle slot *)
}

let registry = ref []
let registry_lock = Mutex.create ()

let fresh_acc () =
  let a =
    {
      exec_ns = 0;
      execs = 0;
      checked = 0;
      steps = 0;
      probe_ns = 0;
      probes = 0;
      judge_ns = 0;
      judges = 0;
      in_exec = false;
      oracle_in_exec_ns = 0;
      oracle_ns = Array.make max_oracles 0;
    }
  in
  Mutex.protect registry_lock (fun () -> registry := a :: !registry);
  a

let acc_key = Domain.DLS.new_key fresh_acc

(* Forget everything timed so far (the warm-up). Worker domains are
   spawned afresh by every engine call, so only this domain's
   accumulator outlives the reset. *)
let reset_accs () =
  Mutex.protect registry_lock (fun () -> registry := []);
  Domain.DLS.set acc_key (fresh_acc ())

(* Oracle slot -> name, in the order the wrapped oracles were built. *)
let oracle_names = ref []

type wrapper = {
  oracles : 'e. 'e Explore.Oracle.t list -> 'e Explore.Oracle.t list;
  workload : Explore.workload -> Explore.workload;
}

let untraced = { oracles = (fun os -> os); workload = Fun.id }

let timed_oracle i (o : 'e Explore.Oracle.t) : 'e Explore.Oracle.t =
  {
    o with
    Explore.Oracle.check =
      (fun e ->
        let t = now_ns () in
        let r = o.Explore.Oracle.check e in
        let dt = now_ns () - t in
        let a = Domain.DLS.get acc_key in
        a.oracle_ns.(i) <- a.oracle_ns.(i) + dt;
        if a.in_exec then a.oracle_in_exec_ns <- a.oracle_in_exec_ns + dt;
        r);
  }

let timed_workload (w : Explore.workload) : Explore.workload =
  let exec ~probe ~certify ~sched ~max_ops ~check =
    let a = Domain.DLS.get acc_key in
    let probe =
      Option.map
        (fun p view ->
          let t = now_ns () in
          let r = p view in
          a.probe_ns <- a.probe_ns + (now_ns () - t);
          a.probes <- a.probes + 1;
          r)
        probe
    in
    a.in_exec <- true;
    let t = now_ns () in
    let out = w.Explore.exec ~probe ~certify ~sched ~max_ops ~check in
    a.exec_ns <- a.exec_ns + (now_ns () - t);
    a.in_exec <- false;
    a.execs <- a.execs + 1;
    a.steps <- a.steps + out.Explore.steps;
    if check then a.checked <- a.checked + 1;
    let judge () =
      let a = Domain.DLS.get acc_key in
      let t = now_ns () in
      let r = out.Explore.judge () in
      a.judge_ns <- a.judge_ns + (now_ns () - t);
      a.judges <- a.judges + 1;
      r
    in
    { out with Explore.judge }
  in
  { w with Explore.exec }

let traced =
  {
    oracles =
      (fun os ->
        oracle_names := List.map (fun o -> o.Explore.Oracle.name) os;
        List.mapi timed_oracle os);
    workload = timed_workload;
  }

(* ---------------------------------------------------------------- *)
(* Workloads                                                          *)
(* ---------------------------------------------------------------- *)

type counts = {
  prefixes : int;
  executions : int;
  leaves : int;
  dedup_hits : int;
  violations : string list;  (** first error of each violation *)
}

let first_errors vs =
  List.map
    (fun (v : Explore.violation) ->
      match v.Explore.errors with e :: _ -> e | [] -> "")
    vs

let exhaustive ~max_steps ~domains w =
  let r = Explore.exhaustive ~max_steps ~domains w in
  {
    prefixes = r.Explore.prefixes;
    executions = r.Explore.executions;
    leaves = r.Explore.complete + r.Explore.truncated;
    dedup_hits = r.Explore.dedup_hits;
    violations = first_errors r.Explore.violations;
  }

(* A sweep runs each schedule once, root to leaf, and judges it. *)
let sweep ~budget ~seed ~domains w =
  let r = Explore.sweep ~domains ~budget ~seed w in
  {
    prefixes = r.Explore.executions;
    executions = r.Explore.executions;
    leaves = r.Explore.executions;
    dedup_hits = 0;
    violations = first_errors r.Explore.violations;
  }

type spec = {
  build : wrapper -> Explore.workload;
  run : seed:int -> domains:int -> Explore.workload -> counts;
  warm : seed:int -> domains:int -> Explore.workload -> unit;
  twin : seed:int -> domains:int -> string list;
      (** errors the seeded-bug twin must produce; [[]] = not caught *)
}

let bu_conflict ?inject ~m wr =
  match
    Explore.Aug_target.builtin ?inject
      ~oracles:(wr.oracles Explore.Aug_target.default_oracles)
      ~name:"bu-conflict" ~f:3 ~m ()
  with
  | Some w -> wr.workload w
  | None -> failwith "bu-conflict: unknown builtin workload"

let racing wr =
  wr.workload
    (Explore.Harness_target.racing
       ~oracles:(wr.oracles Explore.Harness_target.default_oracles)
       ~n:4 ~m:2 ~f:2 ~d:0 ())

let spec_of = function
  | "exh-dedup" ->
    {
      build = bu_conflict ~m:2;
      run = (fun ~seed:_ ~domains w -> exhaustive ~max_steps:16 ~domains w);
      warm =
        (fun ~seed:_ ~domains w ->
          ignore (exhaustive ~max_steps:10 ~domains w));
      twin =
        (fun ~seed:_ ~domains ->
          (exhaustive ~max_steps:16 ~domains
             (bu_conflict ~inject:Aug.Yield_on_higher ~m:2 untraced))
            .violations);
    }
  | "exh-racing" ->
    {
      build = racing;
      run = (fun ~seed:_ ~domains w -> exhaustive ~max_steps:18 ~domains w);
      warm =
        (fun ~seed:_ ~domains w ->
          ignore (exhaustive ~max_steps:12 ~domains w));
      twin =
        (* Corollary 33: with too few components the racing simulation
           must let the simulators disagree. *)
        (fun ~seed ~domains ->
          (sweep ~budget:2000 ~seed ~domains (racing untraced)).violations
          |> List.filter
               (String.starts_with ~prefix:"consensus: disagreement"));
    }
  | "sweep-spec" ->
    {
      build = bu_conflict ~m:3;
      run = (fun ~seed ~domains w -> sweep ~budget:200_000 ~seed ~domains w);
      warm =
        (fun ~seed ~domains w ->
          ignore (sweep ~budget:4_000 ~seed ~domains w));
      twin =
        (fun ~seed ~domains ->
          (sweep ~budget:200_000 ~seed ~domains
             (bu_conflict ~inject:Aug.Skip_yield_check ~m:3 untraced))
            .violations);
    }
  | w -> failwith ("unknown workload " ^ w)

let counts_json c =
  [
    ("prefixes", J.Int c.prefixes);
    ("executions", J.Int c.executions);
    ("leaves", J.Int c.leaves);
    ("dedup_hits", J.Int c.dedup_hits);
    ("violations", J.Arr (List.map (fun e -> J.Str e) c.violations));
  ]

(* Set-up is building the workload plus one smaller warm-up run of it. *)
let setup spec wr ~seed ~domains =
  let t = now_ns () in
  let w = spec.build wr in
  spec.warm ~seed ~domains w;
  (w, secs (now_ns () - t))

let plain name ~seed ~domains =
  let spec = spec_of name in
  let w, _ = setup spec untraced ~seed ~domains in
  let g0 = Gc.quick_stat () in
  let c0 = cpu_s () in
  let t = now_ns () in
  let c = spec.run ~seed ~domains w in
  let wall_s = secs (now_ns () - t) in
  let cpu = cpu_s () -. c0 in
  let g1 = Gc.quick_stat () in
  emit
    ([
       ("ocaml", J.Str Sys.ocaml_version);
       ("domains", J.Int domains);
       ("wall_s", J.Float wall_s);
       ("cpu_s", J.Float cpu);
       ("minor_words", J.Float (g1.Gc.minor_words -. g0.Gc.minor_words));
       ( "promoted_words",
         J.Float (g1.Gc.promoted_words -. g0.Gc.promoted_words) );
       ( "major_collections",
         J.Int (g1.Gc.major_collections - g0.Gc.major_collections) );
       ("top_heap_words", J.Int g1.Gc.top_heap_words);
     ]
    @ counts_json c)

(* Set-up time, as the median of several set-ups in one process; kept
   apart from [plain] so that the measured run's peak RSS does not include
   what the extra warm-up runs leave behind. *)
let setup_only name ~seed ~domains =
  let spec = spec_of name in
  let times =
    List.init 7 (fun _ -> snd (setup spec untraced ~seed ~domains))
  in
  emit [ ("setup_s", J.Float (median times)) ]

let traced_run name ~seed ~domains =
  let spec = spec_of name in
  let w, _ = setup spec traced ~seed ~domains in
  reset_accs ();
  let t = now_ns () in
  let c = spec.run ~seed ~domains w in
  let wall_ns = now_ns () - t in
  let accs = Mutex.protect registry_lock (fun () -> !registry) in
  let sum f = List.fold_left (fun s a -> s + f a) 0 accs in
  emit
    ([
       ("domains", J.Int domains);
       ("wall_s", J.Float (secs wall_ns));
       ("exec_s", J.Float (secs (sum (fun a -> a.exec_ns))));
       ("execs", J.Int (sum (fun a -> a.execs)));
       ("checked", J.Int (sum (fun a -> a.checked)));
       ("steps", J.Int (sum (fun a -> a.steps)));
       ("probe_s", J.Float (secs (sum (fun a -> a.probe_ns))));
       ("probes", J.Int (sum (fun a -> a.probes)));
       ("judge_s", J.Float (secs (sum (fun a -> a.judge_ns))));
       ("judges", J.Int (sum (fun a -> a.judges)));
       ( "oracle_in_exec_s",
         J.Float (secs (sum (fun a -> a.oracle_in_exec_ns))) );
       ( "oracle_s",
         J.Obj
           (List.mapi
              (fun i n -> (n, J.Float (secs (sum (fun a -> a.oracle_ns.(i))))))
              !oracle_names) );
     ]
    @ counts_json c)

let twin name ~seed ~domains =
  let errors = (spec_of name).twin ~seed ~domains in
  emit
    [
      ("caught", J.Bool (errors <> []));
      ("errors", J.Arr (List.map (fun e -> J.Str e) errors));
    ]

(* ---------------------------------------------------------------- *)
(* Rungs: each layer on its own                                       *)
(* ---------------------------------------------------------------- *)

module Trivial = Fiber.Make (struct
  type op = unit
  type res = unit
end)

let rss_kb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | l when String.starts_with ~prefix:"VmRSS:" l ->
      Scanf.sscanf l "VmRSS: %d kB" Fun.id
    | _ -> find ()
    | exception End_of_file -> 0
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

let fiber_rung () =
  let apply ~pid:_ () = () in
  let body n _pid =
    for _ = 1 to n do
      Trivial.op ()
    done
  in
  let run ?probe bodies =
    Trivial.run ?probe ~sched:Schedule.round_robin ~apply bodies
  in
  (* Dispatch: long runs, so the per-run cost is amortized away. *)
  let ops = 10_000 in
  let dispatch =
    List.init 30 (fun _ ->
        let w0 = Gc.minor_words () in
        let t = now_ns () in
        let r = run [ body (ops / 2); body (ops / 2) ] in
        let dt = now_ns () - t in
        let words = Gc.minor_words () -. w0 in
        assert (r.Trivial.total_ops = ops);
        (per dt ops, words /. float_of_int ops))
  in
  (* Set-up: three one-operation fibers, played to completion. *)
  let batch = 500 in
  let run_setup =
    List.init 20 (fun _ ->
        let t = now_ns () in
        for _ = 1 to batch do
          ignore (run [ body 1; body 1; body 1 ])
        done;
        float_of_int (now_ns () - t) /. 1e3 /. float_of_int batch)
  in
  (* Memory kept by runs the probe stops while fibers are still pending,
     as exploration does at every truncated leaf. *)
  let stopped = 20_000 in
  let stop ~step ~live:_ ~pending:_ = if step >= 3 then `Stop else `Continue in
  Gc.full_major ();
  let r0 = rss_kb () in
  for _ = 1 to stopped do
    ignore (run ~probe:stop [ body 100; body 100; body 100 ])
  done;
  Gc.full_major ();
  let r1 = rss_kb () in
  [
    ("fiber.dispatch_ns_per_op", median (List.map fst dispatch));
    ("fiber.minor_words_per_op", median (List.map snd dispatch));
    ("fiber.run_setup_us", median run_setup);
    ("fiber.retained_kb_per_stopped_run", per (r1 - r0) stopped);
  ]

(* Schedules a workload really runs: [n] uniformly random schedules,
   seeded from the benchmark's seed, recorded as the scripts the
   workload's own [exec] executed under them. *)
let sample_scripts (w : Explore.workload) ~seed ~n ~max_ops =
  List.init n (fun i ->
      let sched = Schedule.random ~seed:((seed * 1_000_003) + i) in
      (w.Explore.exec ~probe:None ~certify:false ~sched ~max_ops ~check:false)
        .Explore.script)

let aug_rung ~seed =
  let scripts =
    sample_scripts (bu_conflict ~m:3 untraced) ~seed ~n:4000 ~max_ops:200
  in
  (* Cost of one back-to-back clock read, subtracted from each span. *)
  let clock =
    median
      (List.init 1001 (fun _ ->
           let t = now_ns () in
           float_of_int (now_ns () - t)))
  in
  let kind = function
    | Aug.Ops.Hscan -> 0
    | Aug.Ops.Happend_triples _ -> 1
    | Aug.Ops.Happend_lrecords _ -> 2
  in
  let ns = Array.make 3 0. and cnt = Array.make 3 0 in
  let bus = ref 0 and yields = ref 0 and check_ns = ref 0 in
  List.iter
    (fun script ->
      let aug = Aug.create ~f:3 ~m:3 () in
      let apply ~pid op =
        let t = now_ns () in
        let r = Aug.apply aug ~pid op in
        let k = kind op in
        ns.(k) <- ns.(k) +. float_of_int (now_ns () - t) -. clock;
        cnt.(k) <- cnt.(k) + 1;
        r
      in
      (* The bu-conflict bodies: every process Block-Updates component 0. *)
      let bodies =
        List.init 3 (fun pid _ ->
            ignore (Aug.block_update aug ~me:pid [ (0, Value.Int (pid + 1)) ]))
      in
      let r =
        Aug.F.run ~max_ops:200 ~sched:(Schedule.script script) ~apply bodies
      in
      List.iter
        (function
          | Aug.Bu_op { result = Aug.Yield; _ } ->
            incr bus;
            incr yields
          | Aug.Bu_op _ -> incr bus
          | Aug.Scan_op _ -> ())
        (Aug.log aug);
      let t = now_ns () in
      let report = Aug_spec.check aug r.Aug.F.trace in
      check_ns := !check_ns + (now_ns () - t);
      if not report.Aug_spec.ok then failwith "aug rung: Aug_spec violation")
    scripts;
  let apply_ns k = if cnt.(k) = 0 then 0. else ns.(k) /. float_of_int cnt.(k) in
  [
    ("aug.apply_ns.hscan", apply_ns 0);
    ("aug.apply_ns.append_triples", apply_ns 1);
    ("aug.apply_ns.append_lrecords", apply_ns 2);
    ("aug.bu_yield_frac", per !yields !bus);
    ("aug_spec.check_us", per !check_ns (List.length scripts) /. 1e3);
  ]

let harness_rung ~seed =
  let scripts = sample_scripts (racing untraced) ~seed ~n:2000 ~max_ops:18 in
  let hspec =
    {
      Harness.protocol = (fun pid input -> (Racing.protocol ~m:2 ()) pid input);
      n = 4;
      m = 2;
      f = 2;
      d = 0;
      inputs = [ Value.Int 1; Value.Int 2 ];
    }
  in
  let run_ns = ref 0 and h_ops = ref 0 and scans = ref 0 and hops = ref 0 in
  List.iter
    (fun script ->
      let t = now_ns () in
      let r = Harness.run ~max_ops:18 ~sched:(Schedule.script script) hspec in
      run_ns := !run_ns + (now_ns () - t);
      h_ops := !h_ops + r.Harness.total_ops;
      List.iter
        (function
          | Aug.Scan_op { n_ops; _ } ->
            incr scans;
            hops := !hops + n_ops
          | Aug.Bu_op _ -> ())
        (Aug.log r.Harness.aug))
    scripts;
  let n = List.length scripts in
  [
    ("harness.run_us", per !run_ns n /. 1e3);
    ("harness.h_ops_per_run", per !h_ops n);
    ("aug.scan_hops", per !hops !scans);
  ]

let obs_rung () =
  let c = Obs.Metrics.counter "perfbench.obs_rung" in
  let n = 2_000_000 in
  let loop () =
    for _ = 1 to n do
      Obs.Metrics.incr c
    done
  in
  let time f =
    let t = now_ns () in
    f ();
    per (now_ns () - t) n
  in
  let d1 = List.init 5 (fun _ -> time loop) in
  let d2 =
    List.init 5 (fun _ ->
        time (fun () ->
            let other = Domain.spawn loop in
            loop ();
            Domain.join other))
  in
  [ ("obs.incr_ns.d1", median d1); ("obs.incr_ns.d2", median d2) ]

let rung name ~seed =
  let metrics =
    match name with
    | "fiber" -> fiber_rung ()
    | "aug" -> aug_rung ~seed
    | "harness" -> harness_rung ~seed
    | "obs" -> obs_rung ()
    | r -> failwith ("unknown rung " ^ r)
  in
  emit (List.map (fun (k, v) -> (k, J.Float v)) metrics)

let () =
  match Array.to_list Sys.argv |> List.tl with
  | [ "plain"; w; seed; d ] ->
    plain w ~seed:(int_of_string seed) ~domains:(int_of_string d)
  | [ "setup"; w; seed; d ] ->
    setup_only w ~seed:(int_of_string seed) ~domains:(int_of_string d)
  | [ "traced"; w; seed; d ] ->
    traced_run w ~seed:(int_of_string seed) ~domains:(int_of_string d)
  | [ "twin"; w; seed; d ] ->
    twin w ~seed:(int_of_string seed) ~domains:(int_of_string d)
  | [ "rung"; r; seed ] -> rung r ~seed:(int_of_string seed)
  | _ ->
    prerr_endline
      "usage: bench.exe (plain|setup|traced|twin) WORKLOAD SEED DOMAINS | rung \
       (fiber|aug|harness|obs) SEED";
    exit 2
