(* Happens-before machinery: per-fiber vector clocks joined on shared-
   location reads/writes, plus control-boundary (fault-plane) events.

   The runtime linearizes every base-object operation, so the trace's
   index order already embeds one valid happens-before order. What the
   vector clocks add is the *per-location* view: a fiber's clock only
   advances past another fiber's events when it actually read a location
   the other fiber published, so "q observed p's write" becomes a
   machine-checkable pointwise comparison instead of an argument about
   scan contents. The explore engine's race oracle is built on this
   module. *)

type clock = int array

module Clock = struct
  let make n : clock = Array.make n 0
  let copy : clock -> clock = Array.copy

  let tick (c : clock) p = c.(p) <- c.(p) + 1

  let join ~(into : clock) (c : clock) =
    for i = 0 to Array.length into - 1 do
      if c.(i) > into.(i) then into.(i) <- c.(i)
    done

  let leq (a : clock) (b : clock) =
    let n = Array.length a in
    let rec go i = i >= n || (a.(i) <= b.(i) && go (i + 1)) in
    go 0

  let concurrent a b = (not (leq a b)) && not (leq b a)

  let show (c : clock) =
    "<"
    ^ String.concat ","
        (Array.to_list (Array.map string_of_int c))
    ^ ">"
end

module Tracker = struct
  type t = {
    procs : int;
    clocks : clock array;  (* one clock per fiber, dimension [procs] *)
    published : clock option array;  (* last write's stamp, per location *)
  }

  let create ~procs ~locs =
    {
      procs;
      clocks = Array.init procs (fun _ -> Clock.make procs);
      published = Array.make locs None;
    }

  let procs t = t.procs

  let step t ~pid = Clock.tick t.clocks.(pid) pid

  let write t ~pid ~loc =
    Clock.tick t.clocks.(pid) pid;
    t.published.(loc) <- Some (Clock.copy t.clocks.(pid))

  let read t ~pid ~loc =
    match t.published.(loc) with
    | None -> ()
    | Some c -> Clock.join ~into:t.clocks.(pid) c

  let read_all t ~pid =
    Clock.tick t.clocks.(pid) pid;
    Array.iter
      (function
        | None -> ()
        | Some c -> Clock.join ~into:t.clocks.(pid) c)
      t.published

  (* A ~control boundary event (crash, restart, stall): the fiber's
     local state may be lost, but its place in the happens-before order
     persists — an incarnation edge, modeled as a plain local tick so
     pre-crash events stay ordered before post-restart ones. *)
  let boundary t ~pid = Clock.tick t.clocks.(pid) pid

  let stamp t ~pid = Clock.copy t.clocks.(pid)
end
