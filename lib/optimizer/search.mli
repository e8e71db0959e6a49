(** Cost-based plan search over a Volcano/Cascades memo (the paper's
    Section 4): orthogonal local rules fire on group expressions, and
    the cheapest plan is extracted from the groups.  A group is a set
    of equivalent expressions over one set of output columns; a group
    expression is keyed exactly on (operator payload, child group
    ids).  Inner-join orders are filled into the memo by one rule,
    [join-enumerate] ({!Join_order}): one group per connected vertex
    set, shared between the graphs that contain it. *)

open Relalg
open Relalg.Algebra

(** The shape a rule matches in the memo: an operator the predicate
    accepts with patterns for its children ([Node]), the group's
    cheapest members that match ([Cheapest]), or any tree ([Any]: the
    group's proof, the tree of it that proves the most). *)
type pat = Any | Node of (op -> bool) * pat list | Cheapest of (op -> bool)

(** A rule that enters its alternatives into the memo itself rather
    than through [apply] (join enumeration). *)
type expand

type rule = {
  name : string;
  apply : op -> op list;  (** the rewrite, on a binding or a whole tree *)
  pattern : pat list;  (** the bindings it fires on in the memo *)
  expand : expand option;
}

(** A rule with no memo expansion; [pattern] defaults to any operator,
    one level deep. *)
val make_rule : ?pattern:pat list -> string -> (op -> op list) -> rule

(** The rule set enabled by a configuration, costing join orders with
    [stats]. *)
val rules_for : Config.t -> Stats.t -> env:Props.env -> rule list

(** Fire a rule at every node of a tree, returning one whole tree per
    firing (the prover's view of a rule). *)
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

    What the search did, pass by pass — which rules fired, how many of
    their expressions the memo already had, how many it gained, and how
    the root group's cost moved — and the memo's size and join
    enumeration at the end.  Recorded only under
    [optimize ~record_trace:true]. *)

type rule_stat = {
  rule : string;
  fired : int;  (** expressions the rule produced this pass *)
  kept : int;  (** accepted into the memo (new group expressions) *)
  dups : int;  (** rejected, unverified, as expressions their group already has *)
  invalid : int;  (** rejected by the plan integrity verifier *)
}

type round_trace = {
  round : int;
  stats : rule_stat list;  (** per-rule counts; rules that never fired omitted *)
  survivors : int;  (** group expressions this pass added *)
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
  groups : int;  (** memo groups *)
  group_exprs : int;  (** memo group expressions *)
  dpccp_graphs : int;  (** join graphs enumerated *)
  dpccp_sets : int;  (** connected vertex sets filled *)
  dpccp_shared : int;  (** vertex sets found already filled by another graph *)
}

val trace_to_string : trace -> string
val trace_to_json : trace -> string

type outcome = {
  best : op;
  best_cost : float;
  explored : int;  (** group expressions in the memo *)
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
    [record_trace] additionally returns the per-pass rule-firing trace.

    The search runs in passes (at most [max_rounds]); each binding of a
    rule — a group expression with the members of its child groups to
    the rule's pattern depth — fires once, in the pass after its newest
    member appeared.  A result is cleaned up
    ({!Normalize.Simplify.simplify_node} on its new nodes) and, when its
    group already has it or a result of the same shape up to fresh
    column ids, counted as a duplicate and dropped without
    verification.  [verify] (default [true]) checks every other result
    before it enters the memo: {!Relalg.Verify.check_node} on each new
    node over its children's schemas and free references, the group's
    columns and outer references, and {!Relalg.Verify.check_rewrite} at
    the firing site.  A result with violations is dropped before it is
    costed, and the offending rule is quarantined for the rest of this
    search.  In a trace every pass satisfies
    [fired = kept + dups + invalid] per rule.  The search stops when a
    pass adds nothing or the memo holds [max_alternatives] group
    expressions.  The plans of the root group's cheapest expressions
    and the seed are then costed whole, and the cheapest that passes
    {!Relalg.Verify.check} is returned.
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
