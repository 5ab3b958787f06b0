(* The lint rule catalogue: every rule the analyzer can fire, with its
   default severity and the rationale shown in documentation.

   Rule families:
   - T: type diagnostics surfaced through the collect-all typechecker;
   - R: effect-race detection — the ⊕-safety conditions the fused kernels'
     reordering and the incremental index cache silently assume;
   - V: plan translation validation — the optimizer's rewrites are checked,
     not trusted;
   - P: performance lints tied to [Agg_plan.analyze] and plan structure;
   - S: shard-locality findings from the footprint analysis — how far a
     script's reads and effects can reach across the map;
   - N: numeric value-range findings from interval abstract
     interpretation ([Absint]).

   Waiving: rules carry no per-site suppression (scripts are small); a
   build that accepts a finding documents it and runs without [--werror],
   which only promotes warnings — infos never gate. *)

type t = {
  id : string;
  severity : Diagnostic.severity;
  title : string;
  rationale : string;
}

let all : t list =
  [
    {
      id = "T001";
      severity = Diagnostic.Error;
      title = "type error";
      rationale =
        "the declaration violates the SGL typing rules (unknown name, arity, \
         boolean/numeric confusion, reserved binding, recursion)";
    };
    {
      id = "R001";
      severity = Diagnostic.Error;
      title = "effect on const attribute";
      rationale =
        "const-tagged attributes have no combination rule: contributions cannot merge \
         through the tick's ⊕, so the write is rejected before it can race";
    };
    {
      id = "R002";
      severity = Diagnostic.Error;
      title = "const write-write race";
      rationale =
        "a const-tagged attribute is writable from multiple units (key/all target or \
         several effect sites): with no commutative ⊕ the surviving value depends on \
         evaluation order";
    };
    {
      id = "R003";
      severity = Diagnostic.Warn;
      title = "read of same-tick pending effect";
      rationale =
        "the script reads an effect attribute that is also written this tick; decision \
         reads observe the pre-tick value, so the effect lands one tick late";
    };
    {
      id = "R004";
      severity = Diagnostic.Warn;
      title = "dead effect write";
      rationale =
        "the effect attribute is never read by any script or by the post-processing \
         query: the contribution is computed, combined, and discarded";
    };
    {
      id = "V001";
      severity = Diagnostic.Error;
      title = "malformed plan";
      rationale =
        "the optimized plan reads an unbound register, binds below the schema arity, \
         references an unknown aggregate instance, or emits an effect on a const or \
         out-of-range attribute";
    };
    {
      id = "V002";
      severity = Diagnostic.Error;
      title = "rewrite changed effect structure";
      rationale =
        "translation validation: the optimized plan's guarded effects are not \
         ⊕-equivalent to the unrewritten plan's — an optimizer rewrite changed what \
         the script contributes";
    };
    {
      id = "V003";
      severity = Diagnostic.Error;
      title = "lowering changed effect structure";
      rationale =
        "translation validation for the fused backend: the loop program lowered from the \
         optimized plan does not carry the same guarded effect clauses — the compiled \
         kernel would contribute different effects than the plan it was specialized from";
    };
    {
      id = "P001";
      severity = Diagnostic.Warn;
      title = "aggregate falls back to O(n) scan";
      rationale =
        "no index strategy serves the instance (e.g. Random in the selection, or a \
         component depending on the probing unit): every probe scans all units";
    };
    {
      id = "P002";
      severity = Diagnostic.Info;
      title = "probe residual forces enumeration";
      rationale =
        "a conjunct mentioning the probing unit survived access-path classification: \
         the index narrows the box but every candidate is still filtered per probe";
    };
    {
      id = "P003";
      severity = Diagnostic.Info;
      title = "extremal aggregate without sweep window";
      rationale =
        "min/max-style components only stream in O(log n) under a constant symmetric \
         window; a unit-dependent window walks the range-tree box per probe";
    };
    {
      id = "P004";
      severity = Diagnostic.Warn;
      title = "dead let binding";
      rationale =
        "the bound value is never read; the optimizer drops it, but the script text \
         says something the program does not do";
    };
    {
      id = "P005";
      severity = Diagnostic.Warn;
      title = "constant condition";
      rationale =
        "the branch condition folds to a constant (literals and consts only): one arm \
         is dead and the test costs a per-unit evaluation before rewriting";
    };
    {
      id = "P006";
      severity = Diagnostic.Info;
      title = "fused bind falls back to tuple materialization";
      rationale =
        "a scalar bind is not float-guaranteed over column-backed attributes (random, \
         comparisons, integer arithmetic, environment reads), so the fused kernel \
         materializes boxed tuples inside its per-row loop instead of loading typed \
         columns";
    };
    {
      id = "S001";
      severity = Diagnostic.Info;
      title = "unbounded read region";
      rationale =
        "an aggregate scans environment tuples without a key equality or a bounded \
         spatial window: under sharding every probe crosses all shards (global reads \
         such as army centroids are often intentional, hence informational)";
    };
    {
      id = "S002";
      severity = Diagnostic.Warn;
      title = "unbounded all-target effect";
      rationale =
        "an All-target effect clause has no bounded spatial window: the write set \
         spans every shard, so the script cannot run shard-locally";
    };
    {
      id = "S003";
      severity = Diagnostic.Warn;
      title = "key expression may escape proven bounds";
      rationale =
        "a Key-target effect names a unit through an expression whose interval is not \
         contained in the key attribute's declared range: the routed write may miss \
         or land on an arbitrary shard";
    };
    {
      id = "N001";
      severity = Diagnostic.Warn;
      title = "possible division by zero";
      rationale =
        "interval analysis cannot exclude a zero divisor in an int or vector division, \
         which raises at runtime and aborts the tick";
    };
    {
      id = "N002";
      severity = Diagnostic.Warn;
      title = "sqrt of possibly negative value";
      rationale =
        "the operand's interval includes negative values: sqrt yields nan, which then \
         poisons comparisons (nan orders below every number) and stored positions";
    };
    {
      id = "N003";
      severity = Diagnostic.Warn;
      title = "guard subsumed by interval facts";
      rationale =
        "the branch condition is always true or always false given schema ranges and \
         derived intervals (beyond what constant folding sees): one arm is dead";
    };
  ]

let find (id : string) : t option = List.find_opt (fun r -> r.id = id) all

(* Default severity of a rule id; unknown ids report as errors so a typo in
   a pass cannot silently demote a finding. *)
let severity (id : string) : Diagnostic.severity =
  match find id with
  | Some r -> r.severity
  | None -> Diagnostic.Error

let diag ?pos ?context ~rule fmt =
  Fmt.kstr (fun message -> Diagnostic.make ~rule ~severity:(severity rule) ?pos ?context message) fmt
