(* The exhaustive explorer's two performance gates, on the clean
   conflicting Block-Update workload (bu-conflict, f=3, m=2) to 12
   steps — a tree the reference DFS needs seconds for:

   - naive gate: the engine on 1 domain with dedup on must run at least
     4.0x faster than the sequential reference DFS ([Naive_dfs]). Most
     of that margin is dedup: with dedup off the engine is about 2x;
   - scaling gate: with dedup off, so every domain count walks the same
     tree, the engine must run at least 2.0x faster on 4 domains than
     on 1. It needs a machine with at least 4 cores.

   Every run must find no violation, and the scaling runs must report
   the same prefix, complete, truncated and execution counts at every
   domain count. Prints the measurements and exits 1 if any check
   fails.

   Usage: dune exec test/reference/explore_gates.exe *)

open Rsim_explore

let max_steps = 12
let naive_target = 4.0
let scaling_target = 2.0

let workload =
  match Explore.Aug_target.builtin ~name:"bu-conflict" ~f:3 ~m:2 () with
  | Some w -> w
  | None -> invalid_arg "bu-conflict is not a builtin workload"

let failures = ref 0

let check ok fmt =
  Printf.ksprintf
    (fun s ->
      Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") s;
      if not ok then incr failures)
    fmt

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Print one run and check it found no violation. *)
let report name (r : Explore.exhaustive_report) dt =
  Printf.printf
    "%-30s %6.2f s %8d prefixes %8d executions %7d dedup hits\n%!" name dt
    r.prefixes r.executions r.dedup_hits;
  check (r.violations = []) "%s: %d violations on the clean workload" name
    (List.length r.violations)

let naive_gate () =
  let naive, t_naive =
    timed (fun () -> Naive_dfs.exhaustive ~max_steps workload)
  in
  report "reference DFS" naive t_naive;
  let engine, t_engine =
    timed (fun () -> Explore.exhaustive ~max_steps ~domains:1 workload)
  in
  report "engine, 1 domain, dedup on" engine t_engine;
  check
    (t_naive /. t_engine >= naive_target)
    "naive gate: engine %.1fx faster than the reference DFS (target %.1fx)"
    (t_naive /. t_engine) naive_target

let scaling_gate () =
  let run domains =
    let r, dt =
      timed (fun () ->
          Explore.exhaustive ~max_steps ~domains ~dedup:false workload)
    in
    report (Printf.sprintf "engine, dedup off, domains=%d" domains) r dt;
    (r, dt)
  in
  let counts (r : Explore.exhaustive_report) =
    (r.prefixes, r.complete, r.truncated, r.executions)
  in
  let r1, t1 = run 1 in
  let r2, t2 = run 2 in
  let r4, t4 = run 4 in
  List.iter
    (fun (d, r) ->
      check
        (counts r = counts r1)
        "%d domains report the 1-domain prefix, complete, truncated and \
         execution counts"
        d)
    [ (2, r2); (4, r4) ];
  Printf.printf "scaling 1 -> 2 domains: %.2fx\n" (t1 /. t2);
  check
    (t1 /. t4 >= scaling_target)
    "scaling gate: 1 -> 4 domains %.2fx (target %.1fx)" (t1 /. t4)
    scaling_target

let () =
  (* warm the allocator and code paths before timing *)
  ignore (Explore.exhaustive ~max_steps:8 workload);
  naive_gate ();
  scaling_gate ();
  if !failures > 0 then exit 1
