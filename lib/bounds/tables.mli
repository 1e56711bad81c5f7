(** Bound tables: the paper's quantitative landscape, regenerated.

    Each row compares the paper's lower bound with the best known upper
    bound, marking where they are tight. Rendered as aligned plain-text
    tables by the [print_*] functions (used by the CLI and
    EXPERIMENTS.md). *)

type kset_row = {
  n : int;
  k : int;
  x : int;
  lower : int;  (** Corollary 33 *)
  upper : int;  (** [16]: n − k + x *)
  tight : bool;
}

val kset_rows : ns:int list -> ks:int list -> xs:int list -> kset_row list

type approx_row = {
  a_n : int;
  eps : float;
  a_lower : int;  (** Corollary 34 *)
  upper_schenk : int;
  upper_n : int;
}

val approx_rows : ns:int list -> epss:float list -> approx_row list

val print_kset : Format.formatter -> kset_row list -> unit
val print_approx : Format.formatter -> approx_row list -> unit

(** The headline corollaries as a table: consensus (tight at n) and
    (n−1)-set agreement (tight at 2), over a range of n. *)
val print_headline : Format.formatter -> ns:int list -> unit
