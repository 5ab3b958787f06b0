(* Structured simulation faults.

   Any exception escaping a tick phase is wrapped into a [Fault.t] carrying
   everything an operator needs to reproduce and triage it: the tick, the
   phase, the script group (when attributable), the evaluator that was
   running, and the raw exception and its backtrace.

   Faults accumulate in a bounded in-memory [Log]: a long-running world
   under a permissive fault policy must not leak memory while a bad script
   fails every tick, so the log keeps the first [capacity] faults verbatim
   and thereafter only counts. *)

type phase =
  | Decision
  | Post
  | Movement
  | Death

let phase_name = function
  | Decision -> "decision"
  | Post -> "post"
  | Movement -> "movement"
  | Death -> "death"

type t = {
  tick : int;
  phase : phase;
  script : string option; (* the failing script group, when attributable *)
  evaluator : string;
  exn : exn;
  message : string;
  backtrace : string;
}

exception Error of t

let make ~(tick : int) ~(phase : phase) ?script ~(evaluator : string) (exn : exn)
    (bt : Printexc.raw_backtrace) : t =
  {
    tick;
    phase;
    script;
    evaluator;
    exn;
    message = Printexc.to_string exn;
    backtrace = Printexc.raw_backtrace_to_string bt;
  }

let pp ppf (f : t) =
  Fmt.pf ppf "tick %d [%s/%s]%a: %s" f.tick (phase_name f.phase) f.evaluator
    (fun ppf -> function None -> () | Some s -> Fmt.pf ppf " script %s" s)
    f.script f.message

let () =
  Printexc.register_printer (function
    | Error f -> Some (Fmt.str "Fault.Error(%a)" pp f)
    | _ -> None)

module Log = struct
  type fault = t

  type t = {
    capacity : int;
    entries : fault Sgl_util.Varray.t;
    mutable total : int;
  }

  let create ?(capacity = 64) () : t =
    if capacity < 1 then invalid_arg "Fault.Log.create: capacity must be positive";
    {
      capacity;
      entries =
        Sgl_util.Varray.create
          {
            tick = 0; phase = Decision; script = None; evaluator = ""; exn = Not_found;
            message = ""; backtrace = "";
          };
      total = 0;
    }

  let push (log : t) (f : fault) : unit =
    log.total <- log.total + 1;
    if Sgl_util.Varray.length log.entries < log.capacity then Sgl_util.Varray.push log.entries f

  let to_list (log : t) : fault list = Sgl_util.Varray.to_list log.entries
  let total (log : t) : int = log.total
  let dropped (log : t) : int = log.total - Sgl_util.Varray.length log.entries
end
