(** Structured simulation faults and the bounded in-memory fault log.

    A fault wraps an exception that escaped a tick phase with the context
    needed to reproduce it: tick, phase, script group (when attributable),
    evaluator kind, and the exception and its backtrace. *)

type phase =
  | Decision
  | Post
  | Movement
  | Death

val phase_name : phase -> string

type t = {
  tick : int;
  phase : phase;
  script : string option;
  evaluator : string;
  exn : exn;
  message : string;
  backtrace : string;
}

(** Raised by {!Simulation.step} under the [Fail] policy (and by [Degrade]
    once no weaker evaluator remains): the original exception, in context. *)
exception Error of t

val make :
  tick:int ->
  phase:phase ->
  ?script:string ->
  evaluator:string ->
  exn ->
  Printexc.raw_backtrace ->
  t

val pp : t Fmt.t

(** A bounded fault log: keeps the first [capacity] faults verbatim and
    thereafter only counts, so a script failing every tick for hours cannot
    exhaust memory. *)
module Log : sig
  type fault = t
  type t

  val create : ?capacity:int -> unit -> t

  val push : t -> fault -> unit
  val to_list : t -> fault list

  (** Faults ever pushed, including dropped ones. *)
  val total : t -> int

  val dropped : t -> int
end
