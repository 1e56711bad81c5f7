(** The exhaustive engine's state-claim table: a concurrent set of
    exact keys [(f1, f2, depth, bound)] in which every key is claimed
    by exactly one caller.

    [f1]/[f2] are a state's two independently mixed fingerprint digests,
    [depth] its scheduling-decision index and [bound] the
    preemption-bound state (or [-1]). Keys are stored unboxed and
    compared exactly on all four fields, so two states share a claim only
    when both digests collide {e and} depth and bound-state agree.

    The table is 64 mutex-striped open-addressing hash tables over flat
    [int] arrays with linear probing, each doubled by the insert that
    takes it past 50% load. One mixed hash of the key picks both the slot (its low bits)
    and the stripe (bits the slot index never uses), so every stripe
    spreads its keys over all of its slots. *)

type t

(** A fresh, empty table. *)
val create : unit -> t

(** [claim t f1 f2 ~depth ~bound] inserts the key and returns [true] if
    it was absent, or returns [false] if some earlier call (from any
    domain) already claimed it. Safe to call concurrently.
    @raise Invalid_argument if [depth < 0]. *)
val claim : t -> int -> int -> depth:int -> bound:int -> bool

(**/**)

(** Exposed for the table's tests. *)

(** Number of keys claimed so far. *)
val length : t -> int

(** The stripe a key lives in, in [\[0, 64)]. *)
val stripe_of : int -> int -> depth:int -> bound:int -> int

(** The slot index a key hashes to in a stripe of the given power-of-two
    capacity (before linear probing). *)
val slot_of : int -> int -> depth:int -> bound:int -> capacity:int -> int

(** Slots allocated across all stripes. *)
val capacity : t -> int
