(** Example nondeterministic solo-terminating protocols (§5 inputs).

    These are the protocols fed to {!Derandomize.convert} in tests,
    examples and experiments. *)


(** Two-process nondeterministic ("coin-flip") consensus on two
    single-writer registers: a process writes its value, scans, decides
    if the registers agree (or the other is silent), and otherwise
    nondeterministically keeps or adopts the other's value before
    retrying. Nondeterministic solo termination: adopting always leads a
    solo run to a decision. Agreement holds in {e every} execution;
    only termination relies on the choices.

    [tagged] makes every write carry a [(writer, seqno)] tag (ignored by
    reads), the ABA-freedom transformation of §5.3. *)
val coin_consensus : ?tagged:bool -> me:int -> unit -> Ndproto.t

(** One fetch-and-increment component: a process grabs a ticket and then
    nondeterministically decides it or grabs another. Solo termination
    is immediate (deciding is always enabled); the derandomized protocol
    decides its first ticket. Outputs are distinct across processes. *)
val ticket : Ndproto.t

(** A protocol that is NOT nondeterministic solo terminating: it loops
    writing forever with no deciding branch. Used for failure-injection
    tests (solo-path search must report no path). *)
val hopeless : Ndproto.t
