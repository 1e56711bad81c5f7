(** rsim-lint: the repository's static-analysis plane (DESIGN §10).

    A rule engine over compiler-libs Parsetrees enforcing the
    concurrency and determinism discipline the parallel exploration
    engine relies on:

    - {b R1} no bare mutable state ([ref] / [Hashtbl.create] /
      [Array.make]…) reachable from Domain-spawned code — structure
      level in a [Domain.spawn]ing module, or a [let] whose scope
      spawns — unless it is [Atomic] / [Mutex] / [Condition], or
      annotated [[@rsim.shared "why"]] with a mandatory rationale.
      Mutable record fields declared in spawning modules likewise.
    - {b R2} no direct printing ([Printf.printf] / [print_*] /
      [prerr_*] / [Format.printf]) in [lib/]; diagnostics go through
      {!Rsim_obs.Obs.Log}, whose own module (the top-level [Log] of
      [lib/obs/obs.ml]) is the only exemption.
    - {b R3} no ambient nondeterminism ([Random.*],
      [Unix.gettimeofday], [Unix.time], [Sys.time]) in the
      deterministic paths ([lib/runtime], [lib/augmented],
      [lib/explore]).
    - {b R4} no partial functions ([List.hd], [List.tl], [Option.get],
      bare [failwith]) on those same hot paths.
    - {b R5} every [lib/] module has a sibling [.mli].

    Findings are diffed against a committed baseline keyed by
    (rule, file, message) so CI fails only on regressions; the JSON
    report schema is [{tool; files; total; fresh; findings}]. *)

type finding = {
  rule : string;  (** ["R1"]..["R5"], or ["parse"] for unparseable files *)
  file : string;  (** repository-relative path *)
  line : int;
  col : int;
  message : string;
}

type report = { files : int;  (** files scanned *) findings : finding list }

(** Lint one implementation file. [file] is the repository-relative
    path (used for zone classification and in findings); the source is
    read from [root ^ "/" ^ file]. *)
val lint_file : root:string -> file:string -> finding list

(** Lint source text directly (fixture tests). *)
val lint_source : file:string -> string -> finding list

(** The [.ml] files a scan would visit, sorted (default dirs:
    [lib bin dev], skipping [_build]-style directories). *)
val files : ?dirs:string list -> root:string -> unit -> string list

(** Walk the workspace and apply every rule, including R5. Findings are
    sorted by (file, line, rule, message). *)
val scan : ?dirs:string list -> root:string -> unit -> report

(** {2 Report + baseline} *)

val finding_to_json : finding -> Rsim_obs.Obs.Json.t

(** The report as JSON, under the schema above. *)
val report_to_json :
  tool:string -> fresh:finding list -> report -> Rsim_obs.Obs.Json.t

(** Baseline identity of a finding: line numbers shift too easily, so
    (rule, file, message). *)
val key : finding -> string * string * string

val baseline_to_string : finding list -> string

val baseline_of_string :
  string -> ((string * string * string) list, string) result

(** [Ok []] when the file does not exist. *)
val load_baseline :
  path:string -> ((string * string * string) list, string) result

(** The findings not excused by the baseline. *)
val fresh_against :
  baseline:(string * string * string) list -> finding list -> finding list

val pp_finding : Format.formatter -> finding -> unit
