(** Happens-before machinery: per-fiber vector clocks joined on
    shared-location reads and writes, plus control-boundary (fault-plane)
    events.

    The fiber runtime applies base-object operations atomically, one at a
    time, so the trace order is already a linearization. The vector
    clocks refine it to the {e observation} order: a fiber's clock
    advances past another fiber's events only when it reads a location
    the other fiber published, which makes "q observed p's write" a
    pointwise array comparison. {!Rsim_explore.Explore} builds its [race]
    oracle on this module (DESIGN §10). *)

(** A vector clock of dimension = number of fibers. *)
type clock = int array

module Clock : sig
  val make : int -> clock
  val copy : clock -> clock

  (** [tick c p] advances [p]'s component — one local event. *)
  val tick : clock -> int -> unit

  (** Pointwise maximum, accumulated into [into]. *)
  val join : into:clock -> clock -> unit

  (** [leq a b]: the event stamped [a] happens-before (or equals) the
      event stamped [b]. *)
  val leq : clock -> clock -> bool

  (** Neither [leq a b] nor [leq b a]: the two events are concurrent. *)
  val concurrent : clock -> clock -> bool

  val show : clock -> string
end

(** Replays an access history and maintains one clock per fiber plus the
    stamp of the last write to each shared location. *)
module Tracker : sig
  type t

  (** [create ~procs ~locs]: [procs] fibers (clock dimension), [locs]
      shared single-writer locations. *)
  val create : procs:int -> locs:int -> t

  val procs : t -> int

  (** A local event: tick only. *)
  val step : t -> pid:int -> unit

  (** A write: tick, then publish the writer's clock on [loc]. *)
  val write : t -> pid:int -> loc:int -> unit

  (** Join [loc]'s last published stamp into [pid]'s clock (no tick). *)
  val read : t -> pid:int -> loc:int -> unit

  (** A full snapshot read: tick, then join every location's last
      published stamp — what an [H.scan] does. *)
  val read_all : t -> pid:int -> unit

  (** A ~control boundary event (crash / restart / stall directive): an
      incarnation edge. Local state may be lost but the fiber's place in
      the happens-before order persists, so this is a local tick. *)
  val boundary : t -> pid:int -> unit

  (** Copy of [pid]'s current clock — the stamp of its latest event. *)
  val stamp : t -> pid:int -> clock
end
