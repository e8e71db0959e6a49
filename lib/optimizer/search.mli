(** Cost-based plan search.

    A beam over whole plans with memoized deduplication: a compact
    stand-in for the Volcano/Cascades engine of the paper's Section 4,
    preserving its architecture (orthogonal local rules + cost-based
    choice).  Inner-join orders come from one rule, [join-enumerate]
    ({!Join_order}), which enumerates a whole block per firing. *)

open Relalg
open Relalg.Algebra

type rule = { name : string; apply : op -> op list }

(** The rule set enabled by a configuration, costing join orders with
    [stats]. *)
val rules_for : Config.t -> Stats.t -> env:Props.env -> rule list

(** Fire a rule at every node, returning one whole tree per firing. *)
val apply_everywhere : rule -> op -> op list

(** One rule firing, with the local subtrees it rewrote — the evidence
    the integrity verifier needs to re-check the rewrite's side
    conditions ({!Relalg.Verify.check_rewrite}). *)
type firing = {
  site_before : op;  (** the subtree the rule matched *)
  site_after : op;  (** what the rule put in its place *)
  result : op;  (** the whole tree with the site replaced *)
}

(** Like {!apply_everywhere}, but keeps the rewrite sites. *)
val apply_everywhere_sites : rule -> op -> firing list

(** {2 Search trace}

    What the beam search did, round by round — which rules fired, how
    many products the memo rejected as duplicates, how many survivors
    the beam kept, and how the best cost moved.  Recorded only under
    [optimize ~record_trace:true]. *)

type rule_stat = {
  rule : string;
  fired : int;  (** trees the rule produced this round *)
  kept : int;  (** accepted into the memo (new alternatives) *)
  dups : int;  (** rejected, unverified, as duplicates of memoized trees *)
  invalid : int;  (** rejected by the plan integrity verifier *)
}

type round_trace = {
  round : int;
  stats : rule_stat list;  (** per-rule counts; rules that never fired omitted *)
  survivors : int;  (** beam width actually kept for the next round *)
  best_cost_after : float;
}

type trace = {
  rounds : round_trace list;
  total_fired : int;
  total_duplicates : int;
  total_invalid : int;  (** candidates dropped by the integrity verifier *)
  quarantined : (string * string) list;
      (** rules disabled mid-search, with the violation that disabled them *)
  exhausted : bool;  (** the [max_alternatives] budget stopped the search *)
}

val trace_to_string : trace -> string
val trace_to_json : trace -> string

type outcome = {
  best : op;
  best_cost : float;
  explored : int;  (** number of distinct alternatives considered *)
  seed_cost : float;
  trace : trace option;  (** present when [optimize ~record_trace:true] *)
  quarantined : (string * string) list;
      (** rules the verifier disabled mid-search (rule, violation) —
          non-empty means a transformation emitted a broken plan and was
          cut off; always populated, trace or not *)
}

(** Explore from [seed] and return the cheapest plan.  [must] restricts
    the final choice (not the exploration) to plans satisfying a
    predicate — benches use it to force one strategy of the paper's
    lattice; falls back to the seed if nothing qualifies.
    [record_trace] additionally returns the per-round rule-firing
    trace.

    Each rule firing is cleaned up ({!Normalize.Simplify.cleanup}) and
    fingerprinted first.  A firing whose plan is already in the memo is
    counted as a duplicate and dropped without verification: its plan
    was verified when first admitted.  [verify] (default [true]) runs
    {!Relalg.Verify} over every other firing before it enters the memo:
    structural/semantic invariants on the whole tree plus
    rewrite-specific side conditions at the firing site.  A candidate
    with violations is dropped before it is ever costed, and the
    offending rule is quarantined — skipped for the rest of this search
    — so one broken transformation cannot poison the plan space.  Every
    plan that enters the memo, and so every plan that can be chosen,
    has been verified; a duplicate firing cannot quarantine its rule.
    In a trace every round satisfies [fired = kept + dups + invalid]
    per rule.
    [extra_rules] appends caller-supplied rules to the configured set
    (tests use it to exercise quarantine with a deliberately unsound
    rule). *)
val optimize :
  ?must:(op -> bool) ->
  ?record_trace:bool ->
  ?verify:bool ->
  ?extra_rules:rule list ->
  Config.t ->
  Stats.t ->
  env:Props.env ->
  op ->
  outcome
