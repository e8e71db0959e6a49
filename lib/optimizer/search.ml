(* Cost-based plan search.

   The architecture follows the paper's Section 4: normalization
   produces a canonical tree, then transformation rules generate
   execution alternatives and the cheapest estimated plan wins.  The
   search is a beam over whole plans with memoized deduplication — a
   simplification of the Volcano/Cascades engine the paper's system
   uses, preserving its essential structure (orthogonal local rules +
   cost-based choice).  Join order is not a rule closure: one rule,
   [join-enumerate] ({!Join_order}), orders a whole block of inner
   joins by dynamic programming in one firing, and the GroupBy,
   local-aggregate, SegmentApply and property rules fire on the plans
   it yields.

   Deduplication keys on the structural fingerprint
   ([Relalg.Fingerprint]), which renumbers column ids (rules mint fresh
   ids on each firing, so textual identity would never fire). *)

open Relalg
open Relalg.Algebra

type rule = { name : string; apply : op -> op list }

(* [props]: the properties the GroupBy and property rules read for a
   node of the tree they fire on; [card_env] and [interior]: what the
   join enumerator costs a block under, and which inner joins lie inside
   a block rooted above them (see {!Join_order.rule}). *)
let rules_with (cfg : Config.t) ~(props : op -> Fd.t) ~card_env ~interior ~(cat : Catalog.t) :
    rule list =
  let r name f = { name; apply = (fun o -> match f o with Some t -> [ t ] | None -> []) } in
  let rmulti name f = { name; apply = f } in
  List.concat
    [ (if cfg.groupby_reorder then
         [ r "groupby-pull-above-join" (Rules.Groupby_reorder.pull_above_join ~props);
           r "groupby-push-below-join" (Rules.Groupby_reorder.push_below_join ~props);
           r "groupby-push-below-outerjoin" (Rules.Groupby_reorder.push_below_outerjoin ~props);
           r "semijoin-below-groupby" Rules.Groupby_reorder.push_semijoin_below_groupby;
           r "semijoin-above-groupby" Rules.Groupby_reorder.pull_semijoin_above_groupby;
           r "filter-below-groupby" Rules.Groupby_reorder.push_filter_below_groupby;
           r "filter-above-groupby" Rules.Groupby_reorder.pull_filter_above_groupby
         ]
       else []);
      (if cfg.local_agg then
         [ r "eager-local-aggregate" Rules.Local_agg.eager_aggregate;
           r "local-groupby-below-join" Rules.Local_agg.push_local_below_join;
           r "local-groupby-collapse" Rules.Local_agg.collapse_global
         ]
       else []);
      (if cfg.segment_apply then
         [ r "segment-apply-intro" Rules.Segment_apply.introduce;
           r "segment-apply-join-pushdown" Rules.Segment_apply.push_join_below
         ]
       else []);
      (if cfg.property_rewrites then
         [ r "groupby-eliminate-key" (Rules.Property_rules.eliminate_groupby_on_key ~props);
           r "max1row-elide" (Rules.Property_rules.elide_max1row ~props);
           r "semijoin-to-inner" (Rules.Property_rules.semijoin_to_inner ~props);
           r "outerjoin-prune" (Rules.Property_rules.prune_unused_outerjoin ~props)
         ]
       else []);
      (if cfg.join_reorder || cfg.correlated_exec then
         [ rmulti "join-enumerate"
             (Join_order.rule ~cat ~reorder:cfg.join_reorder ~with_apply:cfg.correlated_exec
                ~card_env ~interior)
         ]
       else [])
    ]

let rules_for cfg stats ~env =
  rules_with cfg ~props:(Fd.analyze ~env) ~card_env:(Card.make_env stats)
    ~interior:(fun _ -> false) ~cat:(Stats.catalog stats)

(* One rule firing: the matched subtree, what the rule turned it into,
   and the whole rebuilt tree.  The verifier needs the site pair (to
   re-derive rule preconditions) and the result (to check global
   invariants). *)
type firing = { site_before : op; site_after : op; result : op }

(* Every node of [t] in pre-order, with its path: the node's ancestors
   and its index among their children, nearest first. *)
let positions (t : op) : (op * (op * int) list) list =
  let acc = ref [] in
  let rec go node path =
    acc := (node, path) :: !acc;
    List.iteri (fun idx child -> go child ((node, idx) :: path)) (Op.children node)
  in
  go t [];
  List.rev !acc

(* [t] with the node at [path] replaced by [o], rebuilt along the path *)
let rec rebuild path (o : op) =
  match path with
  | [] -> o
  | (parent, idx) :: up ->
      rebuild up
        (Op.with_children parent
           (List.mapi (fun j ch -> if j = idx then o else ch) (Op.children parent)))

(* apply [rule] at each of a tree's [positions], in order, producing one
   firing per rewrite (the last position's first) *)
let fire (rule : rule) positions : firing list =
  List.fold_left
    (fun acc (node, path) ->
      List.fold_left
        (fun acc node' -> { site_before = node; site_after = node'; result = rebuild path node' } :: acc)
        acc (rule.apply node))
    [] positions

(* apply [rule] at every node of [t], producing one firing per position *)
let apply_everywhere_sites (rule : rule) (t : op) : firing list = fire rule (positions t)

let apply_everywhere (rule : rule) (t : op) : op list =
  List.map (fun f -> f.result) (apply_everywhere_sites rule t)

(* --- search trace ---------------------------------------------------- *)

(* What the beam search did, round by round: which rules fired (and how
   many of their products the memo rejected as duplicates), how many
   survivors the beam kept, and how the best cost moved.  Recorded only
   when requested — the hot path pays one [match] per rule firing. *)

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
      (** rules disabled mid-search: (rule, first violation) *)
  exhausted : bool;  (** the [max_alternatives] budget stopped the search *)
}

type outcome = {
  best : op;
  best_cost : float;
  explored : int;  (** number of distinct alternatives considered *)
  seed_cost : float;
  trace : trace option;  (** present when [optimize ~record_trace:true] *)
  quarantined : (string * string) list;
      (** rules the verifier disabled this search: (rule, first violation) *)
}

let trace_to_string (t : trace) : string =
  let b = Buffer.create 512 in
  Buffer.add_string b
    (Printf.sprintf "search trace: %d rounds, %d firings, %d duplicates%s%s\n"
       (List.length t.rounds) t.total_fired t.total_duplicates
       (if t.total_invalid > 0 then Printf.sprintf ", %d invalid" t.total_invalid else "")
       (if t.exhausted then " (alternatives budget exhausted)" else ""));
  List.iter
    (fun (rule, why) ->
      Buffer.add_string b (Printf.sprintf "  QUARANTINED %s: %s\n" rule why))
    t.quarantined;
  List.iter
    (fun r ->
      Buffer.add_string b
        (Printf.sprintf "  round %d: %d survivors, best cost %.0f\n" r.round r.survivors
           r.best_cost_after);
      List.iter
        (fun s ->
          Buffer.add_string b
            (Printf.sprintf "    %-32s fired=%-4d kept=%-4d dup=%d%s\n" s.rule s.fired
               s.kept s.dups
               (if s.invalid > 0 then Printf.sprintf " invalid=%d" s.invalid else "")))
        r.stats)
    t.rounds;
  Buffer.contents b

let trace_to_json (t : trace) : string =
  let round_json (r : round_trace) =
    Printf.sprintf
      "{\"round\":%d,\"survivors\":%d,\"best_cost_after\":%.2f,\"rules\":[%s]}" r.round
      r.survivors r.best_cost_after
      (String.concat ","
         (List.map
            (fun s ->
              Printf.sprintf
                "{\"rule\":%s,\"fired\":%d,\"kept\":%d,\"dups\":%d,\"invalid\":%d}"
                (Json.string s.rule) s.fired s.kept s.dups s.invalid)
            r.stats))
  in
  Printf.sprintf
    "{\"rounds\":[%s],\"total_fired\":%d,\"total_duplicates\":%d,\"total_invalid\":%d,\"quarantined\":[%s],\"exhausted\":%b}"
    (String.concat "," (List.map round_json t.rounds))
    t.total_fired t.total_duplicates t.total_invalid
    (String.concat ","
       (List.map
          (fun (rule, why) ->
            Printf.sprintf "{\"rule\":%s,\"violation\":%s}" (Json.string rule)
              (Json.string why))
          t.quarantined))
    t.exhausted

(* Beam-directed search: every candidate is cleanup-normalized
   (merging/eliding trivial projections, so syntactic debris from rule
   firings neither pollutes the memo nor hides duplicates), costed
   once, and only the most promising [beam_width] trees of each round
   are expanded further.  Join orders are enumerated inside one firing,
   so the beam carries no join-order variants as stepping stones. *)
let beam_width = 32

(* The memo of explored plans, keyed on a plan's fingerprint together
   with the fingerprint's hash, so each long key is hashed once. *)
module Memo = Hashtbl.Make (struct
  type t = int * string

  let equal ((h1, s1) : t) (h2, s2) = h1 = h2 && String.equal s1 s2
  let hash ((h, _) : t) = h
end)

let optimize ?(must = fun (_ : op) -> true) ?(record_trace = false) ?(verify = true)
    ?(extra_rules = []) (cfg : Config.t) (stats : Stats.t) ~(env : Props.env) (seed : op) :
    outcome =
  (* [must]: restrict the final choice to plans satisfying a predicate
     (used by the benches to force one strategy of the lattice);
     exploration itself is unrestricted.  Falls back to the seed when no
     explored plan qualifies.
     [verify]: run every candidate a rule emits through the plan
     integrity verifier before it enters the memo; invalid candidates
     are dropped (never costed) and the offending rule is quarantined
     for the rest of this search, so one bad rule degrades plan quality
     instead of correctness.  Duplicates are found first (cleanup, then
     fingerprint) and skip verification: the memoized copy was verified
     when admitted.
     [extra_rules] extends the configured rule set (tests use it to
     inject deliberately broken rules). *)
  let cat = Stats.catalog stats in
  (* The properties of every node of the plan being expanded, derived
     in one fold when first needed: the GroupBy and property rules read
     their inputs' properties here, and costing takes them for the subtrees
     a candidate shares with that plan (rules rebuild only the path
     from their site to the root).  [env] is the catalog's, as
     costing's own. *)
  let expanding = ref (lazy []) in
  let props o =
    match List.assq_opt o (Lazy.force !expanding) with
    | Some p -> p
    | None -> Fd.analyze ~env o
  in
  (* the expanded plan's cardinality environment, and its inner joins
     inside a block, for the join enumerator *)
  let frontier_env = ref (lazy (Card.make_env stats seed)) in
  let interior = ref (lazy []) in
  let rules =
    rules_with cfg ~props
      ~card_env:(fun _ -> Lazy.force !frontier_env)
      ~interior:(fun o -> List.memq o (Lazy.force !interior))
      ~cat
    @ extra_rules
  in
  (* rule name -> first violation summary; consulted before every firing *)
  let quarantine : (string, string) Hashtbl.t = Hashtbl.create 4 in
  (* all rules preserve the root schema (interior rewrites are rebuilt
     into the same context; root rewrites restore their output), so
     every candidate must produce the seed's schema — the executor
     slices result rows positionally *)
  let expect_schema = Op.schema seed in
  let seen = Memo.create 128 in
  let best = ref seed in
  let best_cost = ref infinity in
  (* a candidate is its cleaned tree and the memo key of that tree *)
  let candidate t =
    let t = Normalize.Simplify.cleanup t in
    let fp = Fingerprint.of_op t in
    ((Hashtbl.hash fp, fp), t)
  in
  let admit key t =
    Memo.replace seen key ();
    let c =
      let cenv = { (Card.make_env stats t) with props = env; known = Lazy.force !expanding } in
      Cost.cost cenv cat t
    in
    if c < !best_cost && must t then begin
      best := t;
      best_cost := c
    end;
    (c, t)
  in
  let seed_cost =
    let key, t = candidate seed in
    fst (admit key t)
  in
  let frontier = ref [ (seed_cost, seed) ] in
  let round = ref 0 in
  (* trace accumulation; all of it is dead weight unless [record_trace] *)
  let rounds = ref [] in
  let total_fired = ref 0 in
  let total_dups = ref 0 in
  let total_invalid = ref 0 in
  let exhausted = ref false in
  let round_stats : (string, rule_stat) Hashtbl.t = Hashtbl.create 16 in
  let bump name ~fired ~kept ~dups ~invalid =
    let s =
      match Hashtbl.find_opt round_stats name with
      | Some s -> s
      | None -> { rule = name; fired = 0; kept = 0; dups = 0; invalid = 0 }
    in
    Hashtbl.replace round_stats name
      { s with
        fired = s.fired + fired;
        kept = s.kept + kept;
        dups = s.dups + dups;
        invalid = s.invalid + invalid
      };
    total_fired := !total_fired + fired;
    total_dups := !total_dups + dups
  in
  let close_round survivors =
    if record_trace then begin
      let stats =
        List.sort
          (fun a b -> compare a.rule b.rule)
          (Hashtbl.fold (fun _ s acc -> s :: acc) round_stats [])
      in
      let best_cost_after = if !best_cost = infinity then seed_cost else !best_cost in
      rounds := { round = !round; stats; survivors; best_cost_after } :: !rounds;
      Hashtbl.reset round_stats
    end
  in
  let exception Budget_exhausted in
  (try
     while !round < cfg.max_rounds && !frontier <> [] do
       incr round;
       let next = ref [] in
       List.iter
         (fun (_, t) ->
           expanding := lazy (Fd.analyze_nodes ~env t);
           frontier_env :=
             lazy { (Card.make_env stats t) with props = env; known = Lazy.force !expanding };
           interior := lazy (Join_order.interior_joins t);
           let sites = lazy (positions t) in
           List.iter
             (fun rule ->
               if not (Hashtbl.mem quarantine rule.name) then
                 List.iter
                   (fun (f : firing) ->
                     if Memo.length seen >= cfg.max_alternatives then
                       raise Budget_exhausted;
                     (* a firing earlier in this list may have just
                        quarantined the rule: skip its remaining output *)
                     if not (Hashtbl.mem quarantine rule.name) then begin
                       let key, cleaned = candidate f.result in
                       if Memo.mem seen key then begin
                         (* already memoized, and verified when admitted *)
                         if record_trace then
                           bump rule.name ~fired:1 ~kept:0 ~dups:1 ~invalid:0
                       end
                       else
                         let violations =
                           if verify then
                             match Verify.check ~expect_schema f.result with
                             | [] ->
                                 Verify.check_rewrite ~env ~rule:rule.name
                                   ~before:f.site_before ~after:f.site_after
                             | vs -> vs
                           else []
                         in
                         match violations with
                         | v :: _ ->
                             Hashtbl.replace quarantine rule.name
                               (Verify.violation_summary v);
                             incr total_invalid;
                             if record_trace then
                               bump rule.name ~fired:1 ~kept:0 ~dups:0 ~invalid:1
                         | [] ->
                             next := admit key cleaned :: !next;
                             if record_trace then
                               bump rule.name ~fired:1 ~kept:1 ~dups:0 ~invalid:0
                     end)
                   (fire rule (Lazy.force sites)))
             rules)
         !frontier;
       let ranked = List.sort (fun (a, _) (b, _) -> Float.compare a b) !next in
       frontier := List.filteri (fun i _ -> i < beam_width) ranked;
       close_round (List.length !frontier)
     done
   with Budget_exhausted ->
     exhausted := true;
     close_round 0);
  let best_cost = if !best_cost = infinity then Cost.of_plan stats seed else !best_cost in
  let quarantined =
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) quarantine [])
  in
  let trace =
    if record_trace then
      Some
        { rounds = List.rev !rounds;
          total_fired = !total_fired;
          total_duplicates = !total_dups;
          total_invalid = !total_invalid;
          quarantined;
          exhausted = !exhausted;
        }
    else None
  in
  { best = !best; best_cost; explored = Memo.length seen; seed_cost; trace; quarantined }
