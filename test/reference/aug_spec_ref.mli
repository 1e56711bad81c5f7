(** The list-based executable specification of the augmented snapshot,
    kept as the reference model for {!Rsim_augmented.Aug_spec}: same
    signatures, same reports, byte for byte. The tests hold the library
    checker to it over a seeded corpus of executions. *)

open Rsim_augmented

val linearize : Aug.t -> Aug.F.trace_entry list -> Aug_spec.litem list

val window_start :
  trace:Aug.F.trace_entry list -> last:Hrep.snap -> x_idx:int -> int option

val check : Aug.t -> Aug.F.trace_entry list -> Aug_spec.report
