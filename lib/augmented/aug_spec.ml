open Rsim_value

(* ---------------------------------------------------------------- *)
(* Linearization reconstruction (§3.3)                               *)
(* ---------------------------------------------------------------- *)

type litem =
  | L_scan of { proc : int; view : Value.t array; end_idx : int }
  | L_update of {
      writer : int;
      ts : Vts.t;
      comp : int;
      value : Value.t;
      x_idx : int;
      lin_idx : int;
    }

(* One Update (a single-component write that is part of a Block-Update),
   as reconstructed from the trace. *)
type update = {
  comp : int;
  value : Value.t;
  ts : Vts.t;
  writer : int;
  x_idx : int;  (* its Line-4 append *)
  lin : int;  (* linearization point (trace index) *)
  bu : int;
      (* log position of its Block-Update: the last completed one with its
         writer and timestamp, or -1 if none completed *)
  atomic : bool;  (* that Block-Update returned a view *)
}

type item =
  | U of update
  | S of { proc : int; view : Value.t array; end_idx : int }

let lin_of_item = function U u -> u.lin | S { end_idx; _ } -> end_idx

(* The linearization of one execution, built in one pass over the trace
   and one over its appends. Everything is a list: executions are short,
   a list cell is an inline allocation, and an array costs a runtime call
   to allocate: an array-based version measured slower per check. *)
type recon = {
  appends : Aug.F.trace_entry list;
      (* the Line-4 appends (triple-appending entries), in trace order;
         all triples of one append carry its Block-Update's timestamp *)
  hscans : Aug.F.trace_entry list;  (* the H.scans, newest first *)
  updates : update list;  (* in trace order *)
  order : item list;  (* linearization order *)
  n_incomplete : int;  (* appends whose Block-Update never completed *)
}

let triples_of (e : Aug.F.trace_entry) =
  match e.op with
  | Aug.Ops.Happend_triples trs -> trs
  | Aug.Ops.Hscan | Aug.Ops.Happend_lrecords _ -> []

(* The triple appends in trace order and the H.scans newest first. *)
let appends_and_hscans trace =
  let rec go rev_appends hscans = function
    | [] -> (List.rev rev_appends, hscans)
    | (e : Aug.F.trace_entry) :: rest -> (
      match e.op with
      | Aug.Ops.Hscan -> go rev_appends (e :: hscans) rest
      | Aug.Ops.Happend_triples (_ :: _) -> go (e :: rev_appends) hscans rest
      | Aug.Ops.Happend_triples [] | Aug.Ops.Happend_lrecords _ ->
        go rev_appends hscans rest)
  in
  go [] [] trace

(* Whether one of these triples is for component [comp] with timestamp
   ≽ [ts]. *)
let rec covers ~comp ~ts = function
  | [] -> false
  | (tr : Hrep.triple) :: rest ->
    (tr.comp = comp && Vts.geq tr.ts ts) || covers ~comp ~ts rest

(* The linearization point of an Update (j, t) is the first trace index
   at which H contains a triple for component j with timestamp ≽ t: the
   first append of such a triple. The Update's own append is one, so the
   search ends there at the latest. *)
let rec lin_point ~comp ~ts ~own = function
  | [] -> own
  | (e : Aug.F.trace_entry) :: later ->
    if covers ~comp ~ts (triples_of e) then e.idx
    else lin_point ~comp ~ts ~own later

(* The last completed Block-Update in the log by [pid] with timestamp
   [ts], as [(position, atomic)]; [(-1, false)] if there is none. *)
let block_update_of log ~pid ~ts =
  let rec go pos found = function
    | [] -> found
    | Aug.Bu_op { proc; ts = ts'; result; _ } :: rest
      when proc = pid && Vts.equal ts' ts ->
      go (pos + 1)
        (pos, match result with Aug.Atomic _ -> true | Aug.Yield -> false)
        rest
    | (Aug.Bu_op _ | Aug.Scan_op _) :: rest -> go (pos + 1) found rest
  in
  go 0 (-1, false) log

(* Updates linearized at the same point are ordered by timestamp then
   component (§3.3). Scan and Update points never collide: they sit at
   Hscan and Happend_triples events respectively. *)
let after a b =
  let c = Int.compare (lin_of_item a) (lin_of_item b) in
  if c <> 0 then c > 0
  else
    match (a, b) with
    | U ua, U ub ->
      let c = Vts.compare ua.ts ub.ts in
      c > 0 || (c = 0 && ua.comp > ub.comp)
    | (U _ | S _), _ -> false

(* Stable insertion into a list kept in descending order. Items arrive
   nearly sorted (Updates in trace order, then Scans in log order), so
   each lands at or near the head. *)
let rec insert_desc x = function
  | y :: rest when after y x -> y :: insert_desc x rest
  | desc -> x :: desc

let reconstruct trace log =
  let appends, hscans = appends_and_hscans trace in
  let desc = ref [] and rev_updates = ref [] and n_incomplete = ref 0 in
  List.iter
    (fun (e : Aug.F.trace_entry) ->
      let triples = triples_of e in
      let bu, atomic =
        match triples with
        | tr :: _ -> block_update_of log ~pid:e.pid ~ts:tr.ts
        | [] -> (-1, false)
      in
      if bu < 0 then incr n_incomplete;
      List.iter
        (fun (tr : Hrep.triple) ->
          let u =
            {
              comp = tr.comp;
              value = tr.value;
              ts = tr.ts;
              writer = e.pid;
              x_idx = e.idx;
              lin = lin_point ~comp:tr.comp ~ts:tr.ts ~own:e.idx appends;
              bu;
              atomic;
            }
          in
          rev_updates := u :: !rev_updates;
          desc := insert_desc (U u) !desc)
        triples)
    appends;
  List.iter
    (function
      | Aug.Scan_op { proc; view; end_idx; _ } ->
        desc := insert_desc (S { proc; view; end_idx }) !desc
      | Aug.Bu_op _ -> ())
    log;
  {
    appends;
    hscans;
    updates = List.rev !rev_updates;
    order = List.rev !desc;
    n_incomplete = !n_incomplete;
  }

let linearize aug trace =
  List.map
    (function
      | U u ->
        L_update
          {
            writer = u.writer;
            ts = u.ts;
            comp = u.comp;
            value = u.value;
            x_idx = u.x_idx;
            lin_idx = u.lin;
          }
      | S { proc; view; end_idx } -> L_scan { proc; view; end_idx })
    (reconstruct trace (Aug.log aug)).order

(* The paper's scan-result equality is over update triples (the prefix
   relation of Observation 1), so "the last scan that returns ℓ" means
   the last scan whose result is triple-equal to ℓ. H's triples are
   append-only, so per-component triple counts identify the state. *)
let same_triple_counts (s : Hrep.snap) (last : Hrep.snap) =
  let rec from c =
    c >= Array.length s
    || List.compare_lengths s.(c).Hrep.triples last.(c).Hrep.triples = 0
       && from (c + 1)
  in
  Array.length s = Array.length last && from 0

(* [hscans] newest first: the first match below [x_idx] is the last. *)
let rec window_in ~last ~x_idx = function
  | [] -> None
  | (e : Aug.F.trace_entry) :: older -> (
    match e.res with
    | Aug.Ops.Snap s when e.idx < x_idx && same_triple_counts s last ->
      Some e.idx
    | Aug.Ops.Snap _ | Aug.Ops.Ack -> window_in ~last ~x_idx older)

let window_start ~trace ~last ~x_idx =
  window_in ~last ~x_idx (snd (appends_and_hscans trace))

(* The contents of component [j] of M at trace index [l]: the value of
   the last Update to [j] linearized before [l], or ⊥. *)
let value_at order ~l j =
  let rec go v = function
    | item :: rest when lin_of_item item < l ->
      go (match item with U u when u.comp = j -> u.value | U _ | S _ -> v) rest
    | _ -> v
  in
  go Value.Bot order

(* ---------------------------------------------------------------- *)
(* The checker                                                       *)
(* ---------------------------------------------------------------- *)

type stats = {
  n_scans : int;
  n_bus : int;
  n_atomic : int;
  n_yield : int;
  n_incomplete_bus : int;
  max_scan_ops : int;
  max_bu_ops : int;
}

type report = { ok : bool; errors : string list; stats : stats }

let pp_report fmt r =
  Format.fprintf fmt
    "@[<v>ok=%b scans=%d bus=%d (atomic=%d yield=%d incomplete=%d)@,errors:@,%a@]"
    r.ok r.stats.n_scans r.stats.n_bus r.stats.n_atomic r.stats.n_yield
    r.stats.n_incomplete_bus
    (Format.pp_print_list Format.pp_print_string)
    r.errors

(* The writer of the first Update with timestamp [ts]. *)
let rec first_writer ~ts = function
  | [] -> -1
  | u :: rest -> if Vts.equal u.ts ts then u.writer else first_writer ~ts rest

(* The Block-Update owning the Updates by [proc] with timestamp [ts]
   (the last completed one with that writer and timestamp), or -1 if no
   Update has them. *)
let rec owner ~proc ~ts = function
  | [] -> -1
  | u :: rest ->
    if u.writer = proc && Vts.equal u.ts ts then u.bu else owner ~proc ~ts rest

(* The number of appends strictly inside [(lo, hi)] by processes [pred]
   accepts. *)
let appends_between appends ~lo ~hi ~pred =
  List.fold_left
    (fun n (e : Aug.F.trace_entry) ->
      if e.idx > lo && e.idx < hi && pred e.pid then n + 1 else n)
    0 appends

let check aug trace =
  let m = Aug.m aug in
  let log = Aug.log aug in
  let { appends; hscans; updates; order; n_incomplete } =
    reconstruct trace log
  in
  let errors = ref [] in
  let err fmt = Format.kasprintf (fun s -> errors := s :: !errors) fmt in

  (* Lemma 9: timestamps of distinct Block-Updates are distinct. Each
     Update is held to the writer of the first Update with its
     timestamp. *)
  List.iter
    (fun u ->
      let writer = first_writer ~ts:u.ts updates in
      if writer <> u.writer then
        err "Lemma 9: timestamp %s used by both q%d and q%d" (Vts.show u.ts)
          writer u.writer)
    updates;

  (* Corollary 15: replay M along the linearization; every Scan's view
     must match. *)
  if List.exists (function S _ -> true | U _ -> false) order then begin
    let contents = Array.make m Value.Bot in
    List.iter
      (function
        | U u -> contents.(u.comp) <- u.value
        | S { proc; view; end_idx } ->
          if not (Array.for_all2 Value.equal contents view) then
            err "Corollary 15: Scan by q%d at idx %d returned a stale view"
              proc end_idx)
      order
  end;

  (* Lemma 11 / Lemma 12. *)
  List.iter
    (function
      | Aug.Bu_op { proc; ts; x_idx; start_idx; result; _ } ->
        let c = owner ~proc ~ts updates in
        List.iter
          (fun u ->
            if c >= 0 && u.bu = c then
              match result with
              | Aug.Atomic _ ->
                if u.lin <> x_idx then
                  err
                    "Lemma 11: atomic Block-Update by q%d (ts %s): update to \
                     %d linearized at %d, not at X=%d"
                    proc (Vts.show ts) u.comp u.lin x_idx
              | Aug.Yield ->
                if not (u.lin > start_idx && u.lin <= x_idx) then
                  err
                    "Lemma 12: yield Block-Update by q%d (ts %s): update to \
                     %d linearized at %d outside (%d, %d]"
                    proc (Vts.show ts) u.comp u.lin start_idx x_idx)
          updates
      | Aug.Scan_op _ -> ())
    log;

  (* Lemma 11 contiguity: in the final order, the updates of each atomic
     Block-Update appear consecutively. *)
  List.iter
    (function
      | Aug.Bu_op { proc; ts; result = Aug.Atomic _; _ } ->
        let c = owner ~proc ~ts updates in
        let rec from pos first seen = function
          | [] -> ()
          | U u :: rest when c >= 0 && u.bu = c ->
            if first >= 0 && pos <> first + seen then
              err
                "Lemma 11: updates of atomic Block-Update by q%d (ts %s) are \
                 not consecutive in the linearization"
                proc (Vts.show ts);
            from (pos + 1) (if first < 0 then pos else first) (seen + 1) rest
          | (U _ | S _) :: rest -> from (pos + 1) first seen rest
        in
        from 0 (-1) 0 order
      | Aug.Bu_op _ | Aug.Scan_op _ -> ())
    log;

  (* ---- Windows (Lemmas 16-19). ---- *)
  let windows = ref [] in
  List.iter
    (function
      | Aug.Bu_op
          { proc; ts; x_idx; start_idx; result = Aug.Atomic { view; last }; _ }
        -> (
        match window_in ~last ~x_idx hscans with
        | None ->
          err "Lemma 16: atomic Block-Update by q%d (ts %s): cannot locate L"
            proc (Vts.show ts)
        | Some l_idx ->
          if l_idx < start_idx then
            err
              "Lemma 16: atomic Block-Update by q%d (ts %s): L=%d before its \
               first scan %d"
              proc (Vts.show ts) l_idx start_idx;
          windows := (proc, ts, l_idx, x_idx) :: !windows;
          (* Lemma 19: returned view = contents of M at L. *)
          let rec same_at_l j =
            j >= m
            || Value.equal (value_at order ~l:l_idx j) view.(j)
               && same_at_l (j + 1)
          in
          if not (same_at_l 0) then
            err
              "Lemma 19: atomic Block-Update by q%d (ts %s): returned view \
               differs from M at L=%d"
              proc (Vts.show ts) l_idx;
          (* Lemma 17: no Scan linearized in (L, X). *)
          List.iter
            (function
              | Aug.Scan_op { proc = sp; end_idx = sidx; _ } ->
                if sidx > l_idx && sidx < x_idx then
                  err
                    "Lemma 17: Scan by q%d linearized at %d inside window \
                     (%d, %d) of q%d"
                    sp sidx l_idx x_idx proc
              | Aug.Bu_op _ -> ())
            log;
          (* Lemma 19: only Updates of non-atomic Block-Updates by other
             processes linearize strictly inside the window. *)
          List.iter
            (fun u ->
              if u.lin > l_idx && u.lin < x_idx then
                if u.atomic then
                  err
                    "Lemma 19: update by q%d (atomic BU) linearized at %d \
                     inside window (%d, %d) of q%d"
                    u.writer u.lin l_idx x_idx proc
                else if u.writer = proc then
                  err
                    "Lemma 19: update by the window owner q%d linearized \
                     inside its own window (%d, %d)"
                    proc l_idx x_idx)
            updates)
      | Aug.Bu_op _ | Aug.Scan_op _ -> ())
    log;
  (* Lemma 18: windows pairwise disjoint. *)
  let rec pairs = function
    | [] -> ()
    | (p1, t1, l1, x1) :: rest ->
      List.iter
        (fun (p2, t2, l2, x2) ->
          let overlap = l1 < x2 && l2 < x1 in
          if overlap && not (x1 = x2 && p1 = p2 && Vts.equal t1 t2) then
            err "Lemma 18: windows (%d,%d] of q%d and (%d,%d] of q%d intersect"
              l1 x1 p1 l2 x2 p2)
        rest;
      pairs rest
  in
  pairs !windows;

  (* ---- Theorem 20 and Lemma 2. ---- *)
  List.iter
    (function
      | Aug.Bu_op { proc; ts; start_idx; end_idx; n_ops; result; _ } ->
        if n_ops > 6 then
          err "Lemma 2: Block-Update by q%d took %d > 6 steps" proc n_ops;
        (match result with
        | Aug.Yield ->
          if proc = 0 then
            err "Theorem 20: q0's Block-Update (ts %s) returned Y" (Vts.show ts);
          if
            appends_between appends ~lo:start_idx ~hi:end_idx ~pred:(fun p ->
                p < proc)
            = 0
          then
            err
              "Theorem 20: Block-Update by q%d (ts %s) yielded without a \
               lower-id update in its interval (%d, %d)"
              proc (Vts.show ts) start_idx end_idx
        | Aug.Atomic _ -> ())
      | Aug.Scan_op { proc; start_idx; end_idx; n_ops; _ } ->
        let k =
          appends_between appends ~lo:start_idx ~hi:end_idx ~pred:(fun p ->
              p <> proc)
        in
        if n_ops > (2 * k) + 3 then
          err "Lemma 2: Scan by q%d took %d > 2k+3 = %d steps" proc n_ops
            ((2 * k) + 3))
    log;

  let n_scans = ref 0 and n_atomic = ref 0 and n_yield = ref 0 in
  let max_scan_ops = ref 0 and max_bu_ops = ref 0 in
  List.iter
    (function
      | Aug.Scan_op { n_ops; _ } ->
        incr n_scans;
        max_scan_ops := max !max_scan_ops n_ops
      | Aug.Bu_op { n_ops; result; _ } ->
        (match result with
        | Aug.Atomic _ -> incr n_atomic
        | Aug.Yield -> incr n_yield);
        max_bu_ops := max !max_bu_ops n_ops)
    log;
  let stats =
    {
      n_scans = !n_scans;
      n_bus = !n_atomic + !n_yield;
      n_atomic = !n_atomic;
      n_yield = !n_yield;
      n_incomplete_bus = n_incomplete;
      max_scan_ops = !max_scan_ops;
      max_bu_ops = !max_bu_ops;
    }
  in
  { ok = !errors = []; errors = List.rev !errors; stats }
