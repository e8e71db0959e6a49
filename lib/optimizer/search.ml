(* Cost-based plan search.

   The architecture follows the paper's Section 4: normalization
   produces a canonical tree, then transformation rules generate
   execution alternatives and the cheapest estimated plan wins.  The
   search is a bounded transformation closure with memoized
   deduplication — a simplification of the Volcano/Cascades engine the
   paper's system uses, preserving its essential structure (orthogonal
   local rules + cost-based choice among all derivable trees).

   Deduplication keys on the structural fingerprint
   ([Relalg.Fingerprint]), which renumbers column ids (rules mint fresh
   ids on each firing, so textual identity would never fire). *)

open Relalg
open Relalg.Algebra

type rule = { name : string; apply : op -> op list }

let rules_for (cfg : Config.t) ~(env : Props.env) ~(cat : Catalog.t) : rule list =
  let r name f = { name; apply = (fun o -> match f o with Some t -> [ t ] | None -> []) } in
  let rmulti name f = { name; apply = f } in
  List.concat
    [ (if cfg.groupby_reorder then
         [ r "groupby-pull-above-join" (Rules.Groupby_reorder.pull_above_join ~env);
           r "groupby-push-below-join" (Rules.Groupby_reorder.push_below_join ~env);
           r "groupby-push-below-outerjoin" (Rules.Groupby_reorder.push_below_outerjoin ~env);
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
      (if cfg.correlated_exec then
         [ r "join-to-indexed-apply" (Rules.Correlated.join_to_apply ~cat) ]
       else []);
      (if cfg.property_rewrites then
         [ r "groupby-eliminate-key" (Rules.Property_rules.eliminate_groupby_on_key ~env);
           r "max1row-elide" (Rules.Property_rules.elide_max1row ~env);
           r "semijoin-to-inner" (Rules.Property_rules.semijoin_to_inner ~env);
           r "outerjoin-prune" (Rules.Property_rules.prune_unused_outerjoin ~env)
         ]
       else []);
      (if cfg.join_reorder then
         [ r "join-commute" Rules.Join_rules.commute;
           rmulti "join-associate"
             (fun o -> List.filter_map (fun x -> x) (Rules.Join_rules.associate o));
           r "filter-pullup" Rules.Join_rules.filter_pullup;
           r "project-pullup" Rules.Join_rules.project_pullup
         ]
       else [])
    ]

(* One rule firing: the matched subtree, what the rule turned it into,
   and the whole rebuilt tree.  The verifier needs the site pair (to
   re-derive rule preconditions) and the result (to check global
   invariants). *)
type firing = { site_before : op; site_after : op; result : op }

(* apply [rule] at every node of [t], producing one firing per position *)
let apply_everywhere_sites (rule : rule) (t : op) : firing list =
  let results = ref [] in
  let rec go (node : op) (rebuild : op -> op) =
    List.iter
      (fun node' ->
        results := { site_before = node; site_after = node'; result = rebuild node' } :: !results)
      (rule.apply node);
    let children = Op.children node in
    List.iteri
      (fun idx child ->
        let rebuild_child c' =
          rebuild
            (Op.with_children node
               (List.mapi (fun j ch -> if j = idx then c' else ch) children))
        in
        go child rebuild_child)
      children
  in
  go t (fun x -> x);
  !results

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
  dups : int;  (** rejected as duplicates of memoized trees *)
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

(* Beam-directed transformation closure: every candidate is
   cleanup-normalized (merging/eliding trivial projections, so
   syntactic debris from rule firings neither pollutes the memo nor
   hides duplicates), costed once, and only the most promising
   [beam_width] trees of each round are expanded further. *)
let beam_width = 64

let optimize ?(must = fun (_ : op) -> true) ?(record_trace = false) ?(verify = true)
    ?(extra_rules = []) (cfg : Config.t) (stats : Stats.t) ~(env : Props.env) (seed : op) :
    outcome =
  (* [must]: restrict the final choice to plans satisfying a predicate
     (used by the benches to force one strategy of the lattice);
     exploration itself is unrestricted.  Falls back to the seed when no
     explored plan qualifies.
     [verify]: run every candidate a rule emits through the plan
     integrity verifier; invalid candidates are dropped (never costed)
     and the offending rule is quarantined for the rest of this search,
     so one bad rule degrades plan quality instead of correctness.
     [extra_rules] extends the configured rule set (tests use it to
     inject deliberately broken rules). *)
  let cat = Stats.catalog stats in
  let rules = rules_for cfg ~env ~cat @ extra_rules in
  (* rule name -> first violation summary; consulted before every firing *)
  let quarantine : (string, string) Hashtbl.t = Hashtbl.create 4 in
  (* all rules preserve the root schema (interior rewrites are rebuilt
     into the same context; root rewrites restore their output), so
     every candidate must produce the seed's schema — the executor
     slices result rows positionally *)
  let expect_schema = Op.schema seed in
  let seen = Hashtbl.create 128 in
  let best = ref seed in
  let best_cost = ref infinity in
  let add t =
    let t = Normalize.Simplify.cleanup t in
    let key = Fingerprint.of_op t in
    if Hashtbl.mem seen key then None
    else begin
      Hashtbl.replace seen key ();
      let c = Cost.of_plan stats t in
      if c < !best_cost && must t then begin
        best := t;
        best_cost := c
      end;
      Some (c, t)
    end
  in
  let seed_cost =
    match add seed with Some (c, _) -> c | None -> Cost.of_plan stats seed
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
           List.iter
             (fun rule ->
               if not (Hashtbl.mem quarantine rule.name) then
                 List.iter
                   (fun (f : firing) ->
                     if Hashtbl.length seen >= cfg.max_alternatives then
                       raise Budget_exhausted;
                     (* a firing earlier in this list may have just
                        quarantined the rule: skip its remaining output *)
                     if not (Hashtbl.mem quarantine rule.name) then begin
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
                       | [] -> (
                           match add f.result with
                           | Some entry ->
                               next := entry :: !next;
                               if record_trace then
                                 bump rule.name ~fired:1 ~kept:1 ~dups:0 ~invalid:0
                           | None ->
                               if record_trace then
                                 bump rule.name ~fired:1 ~kept:0 ~dups:1 ~invalid:0)
                     end)
                   (apply_everywhere_sites rule t))
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
  { best = !best; best_cost; explored = Hashtbl.length seen; seed_cost; trace; quarantined }
