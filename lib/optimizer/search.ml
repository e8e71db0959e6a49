(* Cost-based plan search over a memo.

   The architecture follows the paper's Section 4: normalization
   produces a canonical tree, then transformation rules generate
   execution alternatives and the cheapest estimated plan wins.  The
   alternatives live in a Volcano/Cascades memo: a group is a set of
   equivalent expressions over one set of output columns, and a group
   expression is one operator over child groups, keyed exactly on
   (operator payload, child group ids).  A group's properties
   ({!Relalg.Fd}) are those of one tree of it, its proof: the first
   expression's at first, replaced whenever a new expression proves a
   key or non-null column the proof lacks.  Column provenance is noted
   once per new node.  A group keeps its plans undominated on cost,
   rows and floor (see [alt]); a plan is costed by {!Cost.step} over
   one plan of each child group, as the tree the final cleanup leaves.

   Rules keep their [op -> op list] interface, and each rule record
   carries its pattern.  Each fires once per (rule, binding): a binding
   is a group expression with its children taken from the members of
   its child groups down to the pattern's depth, and below that each
   child group's proof.  The search runs in passes; a binding is fired
   in the pass after its newest member appeared.  Join order is filled
   into the memo directly: [join-enumerate] ({!Join_order}) gives every
   connected vertex set of a block its own group, keyed on the set, so
   graphs that share a vertex set share its group and its
   enumeration.

   A new expression is verified locally ({!Relalg.Verify.check_node}
   over its children's schemas and free references, plus
   {!Relalg.Verify.check_rewrite} at the firing site), and the plan the
   search returns is verified whole. *)

open Relalg
open Relalg.Algebra

(* --- search trace ---------------------------------------------------- *)

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
      (** rules disabled mid-search: (rule, first violation) *)
  exhausted : bool;  (** the [max_alternatives] budget stopped the search *)
  groups : int;  (** memo groups *)
  group_exprs : int;  (** memo group expressions *)
  dpccp_graphs : int;  (** join graphs enumerated *)
  dpccp_sets : int;  (** connected vertex sets filled *)
  dpccp_shared : int;  (** vertex sets found already filled by another graph *)
}

type outcome = {
  best : op;
  best_cost : float;
  explored : int;  (** group expressions in the memo *)
  seed_cost : float;
  trace : trace option;  (** present when [optimize ~record_trace:true] *)
  quarantined : (string * string) list;
      (** rules the verifier disabled this search: (rule, first violation) *)
}

let trace_to_string (t : trace) : string =
  let b = Buffer.create 512 in
  Buffer.add_string b
    (Printf.sprintf
       "search trace: %d rounds, %d firings, %d duplicates%s%s\n\
       \  memo: %d groups, %d group expressions; join graphs %d, vertex sets filled %d, shared %d\n"
       (List.length t.rounds) t.total_fired t.total_duplicates
       (if t.total_invalid > 0 then Printf.sprintf ", %d invalid" t.total_invalid else "")
       (if t.exhausted then " (alternatives budget exhausted)" else "")
       t.groups t.group_exprs t.dpccp_graphs t.dpccp_sets t.dpccp_shared);
  List.iter
    (fun (rule, why) ->
      Buffer.add_string b (Printf.sprintf "  QUARANTINED %s: %s\n" rule why))
    t.quarantined;
  List.iter
    (fun r ->
      Buffer.add_string b
        (Printf.sprintf "  round %d: %d new expressions, best cost %.0f\n" r.round r.survivors
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
    "{\"rounds\":[%s],\"total_fired\":%d,\"total_duplicates\":%d,\"total_invalid\":%d,\"quarantined\":[%s],\"exhausted\":%b,\"groups\":%d,\"group_exprs\":%d,\"dpccp_graphs\":%d,\"dpccp_sets\":%d,\"dpccp_shared\":%d}"
    (String.concat "," (List.map round_json t.rounds))
    t.total_fired t.total_duplicates t.total_invalid
    (String.concat ","
       (List.map
          (fun (rule, why) ->
            Printf.sprintf "{\"rule\":%s,\"violation\":%s}" (Json.string rule)
              (Json.string why))
          t.quarantined))
    t.exhausted t.groups t.group_exprs t.dpccp_graphs t.dpccp_sets t.dpccp_shared

(* --- the memo -------------------------------------------------------- *)

type group = {
  gid : int;
  schema : Col.t list;  (** the first expression's output order *)
  free : Col.Set.t;  (** outer references *)
  mutable fd : Fd.t;  (** the properties of [proof] *)
  mutable fd_pass : int;  (** the pass [fd] last grew in *)
  mutable best_pass : int;  (** the pass its cheapest plan last changed in *)
  hole_card : float;  (** rows per segment, inside a SegmentApply's inner *)
  first : op;  (** the first expression's tree *)
  mutable proof : op;  (** the tree of the group that proves the most *)
  mutable exprs : gexpr list;  (** newest first *)
  mutable front : alt list;  (** the group's undominated plans *)
  mutable parents : gexpr list;
  mutable filled : bool;  (** a vertex set whose pairs are all in *)
  mutable lifted : bool;  (** ... with its filters lifted above its joins *)
}

and gexpr = {
  node : op;  (** the operator over one tree of each child group *)
  kids : group list;
  grp : group;
  pass : int;  (** the pass that made it *)
  enum : bool;  (** made by join enumeration *)
  mutable nfd : Fd.t;  (** the properties of [ptree] *)
  mutable ptree : op;  (** the expression over its children's proofs *)
  mutable alts : alt list;  (** its undominated plans *)
  mutable fds : (Fd.t list * Fd.t) list;
      (** its properties over the properties of its children's plans,
          by physical identity: plans share them *)
}

(* A plan of a group: an expression over one plan of each child group,
   with its estimated cost and rows.  Rows differ between the plans of
   one group (a GroupBy's estimate against the projection that replaces
   it on a key; the property engine's bounds clamp some shapes and not
   others), and fewer rows can make every parent cheaper, so a group
   keeps every plan no other beats on cost, rows and floor. *)
and alt = {
  cost : float;
  card : float;
  fd : Fd.t;
  via : gexpr;
  picks : alt list;
  top : op;  (** the plan's root once cleaned up: [via]'s operator merged with stacked children *)
  under : alt list;  (** [top]'s children *)
  floor : float;
      (** what the plan costs when a parent merges its [top] away: its
          children's cost for a Select or Project [top], else [cost] *)
}

(* Subtrees by physical identity, hashed on their bounded structural
   hash. *)
module Phys = Hashtbl.Make (struct
  type t = op

  let equal = ( == )
  let hash = Hashtbl.hash
end)

(* A group expression's key: the operator with its children blanked,
   and its child groups.  [compare], not [=], so a NaN literal equals
   itself. *)
module Key = Hashtbl.Make (struct
  type t = op * int list

  let equal ((a, ka) : t) (b, kb) = ka = kb && Stdlib.compare a b = 0
  let hash ((a, ka) : t) = Hashtbl.hash (Hashtbl.hash a, ka)
end)

let blank = ConstTable { cols = []; rows = [] }
let key_of (o : op) (kids : group list) : Key.key =
  (Op.with_children o (List.map (fun _ -> blank) kids), List.map (fun g -> g.gid) kids)

type memo = {
  env : Card.env;
  cat : Catalog.t;
  by_key : gexpr list Key.t;
  phys : group Phys.t;
  exact : Fd.t Phys.t;  (** proofs, with their properties *)
  sets : (int list * (expr list * int list list), group) Hashtbl.t;
  shapes : (int * string, unit) Hashtbl.t;  (** (group, {!shape}) of each rule result admitted *)
  mutable groups : int;
  mutable all : gexpr list;  (** newest first *)
  mutable nexprs : int;
  mutable pass : int;
  mutable graphs : int;
  mutable sets_filled : int;
  mutable sets_shared : int;
}

let create_memo stats ~env (seed : op) : memo =
  { env = { (Card.make_env stats seed) with props = env };
    cat = Stats.catalog stats;
    by_key = Key.create 256;
    phys = Phys.create 256;
    exact = Phys.create 256;
    sets = Hashtbl.create 64;
    shapes = Hashtbl.create 64;
    groups = 0;
    all = [];
    nexprs = 0;
    pass = 0;
    graphs = 0;
    sets_filled = 0;
    sets_shared = 0;
  }

let dominates (a : alt) (b : alt) = a.cost <= b.cost && a.card <= b.card && a.floor <= b.floor

let floor_of top (under : alt list) cost =
  match top, under with (Select _ | Project _), [ u ] -> u.cost | _ -> cost

(* [a] into the undominated plans [es]: [None] when one dominates it *)
let admit_alt (es : alt list) (a : alt) : alt list option =
  if List.exists (fun x -> dominates x a) es then None
  else Some (a :: List.filter (fun x -> not (dominates a x)) es)

let cheapest_alt (es : alt list) : alt =
  List.fold_left (fun (x : alt) (y : alt) -> if y.cost < x.cost then y else x) (List.hd es) (List.tl es)

let best (g : group) : alt = cheapest_alt g.front

(* The tree of plan [a]; [swap] may replace a plan met on the way.  A union's branches keep the column order it was built over
   (rows meet positionally). *)
let rec build ?(swap = fun (a : alt) -> a) (a : alt) : op =
  let a = swap a in
  let e = a.via in
  let kids = List.map (build ~swap) a.picks in
  let kids =
    match e.node with
    | UnionAll _ | Except _ ->
        List.map2
          (fun k built ->
            let want = Op.schema built in
            if List.equal Col.equal (Op.schema k) want then k else Op.project_restore want k)
          kids (Op.children e.node)
    | _ -> kids
  in
  if List.for_all2 ( == ) kids (Op.children e.node) then e.node else Op.with_children e.node kids

(* [o] over the plans [picks] as the final cleanup leaves it
   ({!Normalize.Simplify.simplify_node}): [`Merged] with a stacked
   Select or Project plan below it merged in (selects and projections
   fused, an aggregation reading through a projection), [`Same] when it
   vanishes into its child's plan, else [`Plain].  A plan is costed as
   that cleaned-up tree, as a whole-plan costing of it would. *)
let stacked (o : op) (picks : alt list) =
  match o, picks with
  | (Select _ | Project _ | GroupBy _ | LocalGroupBy _ | ScalarAgg _), [ a ] -> (
      match a.top, a.under with
      | (Select _ | Project _), [ b ] ->
          let t = Op.with_children o [ a.top ] in
          let c = Normalize.Simplify.simplify_node t in
          if c == t then `Plain
          else if c == a.top then `Same a
          else (
            match Op.children c with [ k ] when k == List.hd (Op.children a.top) -> `Merged (c, [ b ]) | _ -> `Plain)
      | _ -> (
          let t = Op.with_children o [ a.top ] in
          match Normalize.Simplify.simplify_node t with c when c == a.top -> `Same a | _ -> `Plain))
  | _ -> `Plain

(* Cost [e] over its children's plans; a plan that enters its group's
   front may improve its parents' in turn. *)
let rec update m (e : gexpr) =
  m.env.hole_card <- e.grp.hole_card;
  let combos =
    List.fold_right
      (fun k acc -> List.concat_map (fun a -> List.map (fun rest -> a :: rest) acc) k.front)
      e.kids [ [] ]
  in
  e.alts <-
    List.fold_left
      (fun es picks ->
        let kfds = List.map (fun (a : alt) -> a.fd) picks in
        let known =
          match List.find_opt (fun (k, _) -> List.for_all2 ( == ) k kfds) e.fds with
          | Some (_, fd) -> [ (e.node, fd) ]
          | None -> []
        in
        let kids = List.map (fun (a : alt) -> (a.card, a.fd, a.cost)) picks in
        let kids =
          match e.node, kids, picks with
          | SegmentApply { seg_cols; _ }, [ ((co, _, _) as ko); _ ], [ _; inner ] ->
              (* the inner's plan runs once per segment of this outer:
                 costed whole under this SegmentApply's segment rows,
                 since the group may sit under other SegmentApplys *)
              let saved = m.env.hole_card in
              m.env.hole_card <- Float.max 1.0 (co /. Card.group_card m.env seg_cols co);
              let ki = Cost.fold m.env m.cat (build inner) in
              m.env.hole_card <- saved;
              [ ko; ki ]
          | _ -> kids
        in
        let a =
          match stacked e.node picks with
          | `Plain ->
              let card, fd, cost = Cost.step { m.env with known } m.cat e.node kids in
              if known = [] then e.fds <- (kfds, fd) :: e.fds;
              { cost; card; fd; via = e; picks; top = e.node; under = picks; floor = floor_of e.node picks cost }
          | `Same (a : alt) -> { a with via = e; picks }
          | `Merged (top, under) ->
              let card, fd, cost =
                Cost.step m.env m.cat top (List.map (fun (a : alt) -> (a.card, a.fd, a.cost)) under)
              in
              { cost; card; fd; via = e; picks; top; under; floor = floor_of top under cost }
        in
        Option.value ~default:es (admit_alt es a))
      [] combos;
  let g = e.grp in
  let changed = ref false in
  List.iter
    (fun a ->
      match admit_alt g.front a with
      | Some f ->
          g.front <- f;
          changed := true
      | None -> ())
    e.alts;
  if !changed then begin
    g.best_pass <- m.pass;
    List.iter (update m) g.parents
  end

(* [e] over its children's proofs *)
let proof_of (e : gexpr) : op =
  let kids = List.map (fun (k : group) -> k.proof) e.kids in
  if List.for_all2 ( == ) kids (Op.children e.node) then e.node else Op.with_children e.node kids

(* [e]'s properties over its children's proofs *)
let derive m (e : gexpr) =
  e.nfd <- Fd.step ~env:m.env.props e.node (List.map (fun (k : group) -> k.fd) e.kids);
  e.ptree <- proof_of e;
  Phys.replace m.exact e.ptree e.nfd

(* [e] may prove more of its group than the group's proof does: then
   its tree becomes the proof, what depends on the group's properties
   is derived again, and its bindings fire again next pass.  A group's
   properties stay exactly those of one tree of it, so what a rule read
   from them the verifier can re-derive from the binding. *)
let rec learn m (e : gexpr) =
  let g = e.grp and fd = e.nfd in
  let keeps_keys = List.for_all (fun u -> Fd.covers_key fd u) g.fd.uniques in
  let stronger =
    keeps_keys
    && (List.exists (fun u -> not (Fd.covers_key g.fd u)) fd.uniques
       || (Col.Set.subset g.fd.nonnull fd.nonnull && not (Col.Set.subset fd.nonnull g.fd.nonnull)))
  in
  if stronger then begin
    g.fd <- fd;
    g.fd_pass <- m.pass;
    g.proof <- e.ptree;
    List.iter
      (fun p ->
        derive m p;
        update m p;
        learn m p)
      g.parents
  end

(* Add [o] over [kids] as an expression of [into], or of a new group;
   [None] when [into] already has it. *)
let add m ?into ~enum (o : op) (kids : group list) : gexpr option =
  let key = key_of o kids in
  let same = Option.value ~default:[] (Key.find_opt m.by_key key) in
  match into with
  | Some g when List.exists (fun e -> e.grp == g) same -> None
  | _ ->
      Card.note_origins m.env.origins o;
      let nfd = Fd.step ~env:m.env.props o (List.map (fun (k : group) -> k.fd) kids) in
      let ptree =
        let proofs = List.map (fun (k : group) -> k.proof) kids in
        if List.for_all2 ( == ) proofs (Op.children o) then o else Op.with_children o proofs
      in
      Phys.replace m.exact ptree nfd;
      let g =
        match into with
        | Some g -> g
        | None ->
            let _, schema, free = Verify.check_node o (List.map (fun g -> (g.schema, g.free)) kids) in
            m.groups <- m.groups + 1;
            { gid = m.groups; schema; free; fd = nfd; fd_pass = m.pass; best_pass = m.pass; hole_card = m.env.hole_card;
              first = o; proof = ptree; exprs = []; front = []; parents = []; filled = false;
              lifted = false }
      in
      let e = { node = o; kids; grp = g; pass = m.pass; enum; nfd; ptree; alts = []; fds = [] } in
      Key.replace m.by_key key (e :: same);
      if not (Phys.mem m.phys o) then Phys.replace m.phys o g;
      g.exprs <- e :: g.exprs;
      List.iter (fun k -> k.parents <- e :: k.parents) kids;
      m.all <- e :: m.all;
      m.nexprs <- m.nexprs + 1;
      update m e;
      learn m e;
      Some e

(* The group of tree [t], entering its nodes the memo does not know,
   each cleaned up ({!Normalize.Simplify.simplify_node}) after its
   children; returns the group and the cleaned tree.  A SegmentApply's
   inner is entered with its rows per segment. *)
let rec insert m ~enum (t : op) : group * op =
  match Phys.find_opt m.phys t with
  | Some g -> (g, t)
  | None -> (
      let kids = insert_kids m ~enum t in
      let trees = List.map snd kids in
      let t' = if List.for_all2 ( == ) trees (Op.children t) then t else Op.with_children t trees in
      let c = Normalize.Simplify.simplify_node t' in
      if c != t' then insert m ~enum c
      else
        let groups = List.map fst kids in
        match Key.find_opt m.by_key (key_of t' groups) with
        | Some (e :: _) ->
            Phys.replace m.phys t' e.grp;
            (e.grp, t')
        | _ ->
            let saved = m.env.hole_card in
            let e = Option.get (add m ~enum t' groups) in
            m.env.hole_card <- saved;
            (e.grp, t'))

and insert_kids m ~enum (t : op) : (group * op) list =
  match t with
  | SegmentApply { seg_cols; outer; inner } ->
      let ((go, _) as ko) = insert m ~enum outer in
      let saved = m.env.hole_card in
      let co = (best go).card in
      m.env.hole_card <- Float.max 1.0 (co /. Card.group_card m.env seg_cols co);
      let ki = insert m ~enum inner in
      m.env.hole_card <- saved;
      [ ko; ki ]
  | t -> List.map (insert m ~enum) (Op.children t)

(* [t] cleaned up where the memo does not know it, without entering it *)
let rec clean m (t : op) : op =
  if Phys.mem m.phys t then t
  else
    let kids = Op.children t in
    let kids' = List.map (clean m) kids in
    let t' = if List.for_all2 ( == ) kids kids' then t else Op.with_children t kids' in
    let c = Normalize.Simplify.simplify_node t' in
    if c != t' then clean m c else t'

(* The group [t] already is in the memo, if any *)
let rec resolve m (t : op) : group option =
  match Phys.find_opt m.phys t with
  | Some g -> Some g
  | None -> (
      match kid_groups m t with
      | Some kids -> (
          match Key.find_opt m.by_key (key_of t kids) with Some (e :: _) -> Some e.grp | _ -> None)
      | None -> None)

and kid_groups m t =
  List.fold_right
    (fun c acc -> match acc, resolve m c with Some l, Some g -> Some (g :: l) | _ -> None)
    (Op.children t) (Some [])

(* Is [t] already an expression of [g]? *)
let has m (g : group) (t : op) =
  match Phys.find_opt m.phys t with
  | Some g' when g' == g -> true
  | _ -> (
      match kid_groups m t with
      | Some kids ->
          List.exists (fun e -> e.grp == g)
            (Option.value ~default:[] (Key.find_opt m.by_key (key_of t kids)))
      | None -> false)

(* [t]'s new nodes with the groups below them, up to the identity of
   the columns they mint: rules that mint fresh columns make a new
   expression, and new groups below it, on every firing, though each
   such result is the one before it renamed. *)
let shape m (t : op) : string =
  let rec strip t =
    match Phys.find_opt m.phys t with
    | Some g -> ConstTable { cols = Op.schema t; rows = [ [| Value.Int g.gid |] ] }
    | None -> Op.with_children t (List.map strip (Op.children t))
  in
  Fingerprint.of_op (strip t)

(* The local violations of [t]'s new nodes, and [t]'s schema and free
   references *)
let rec check_new m (t : op) : Verify.violation list * (Col.t list * Col.Set.t) =
  match Phys.find_opt m.phys t with
  | Some g -> ([], (g.schema, g.free))
  | None ->
      let kids = List.map (check_new m) (Op.children t) in
      let vs, schema, free = Verify.check_node t (List.map snd kids) in
      (vs @ List.concat_map fst kids, (schema, free))

let same_cols (a : Col.t list) (b : Col.t list) =
  List.length a = List.length b && Col.Set.equal (Col.Set.of_list a) (Col.Set.of_list b)

(* [t] as a member of [g]: a result that widens [g]'s columns gets a
   projection back onto them *)
let fit (g : group) (t : op) : op =
  let sch = Op.schema t in
  if same_cols sch g.schema then t
  else if Col.Set.subset (Col.Set.of_list g.schema) (Col.Set.of_list sch) then
    Op.project_restore g.schema t
  else t

(* The violations that keep [t] out of [g]: its new nodes' own, an
   outer reference [g] does not have, a column set other than [g]'s *)
let violations m (g : group) (t : op) : Verify.violation list =
  let vs, (schema, free) = check_new m t in
  let extra = Col.Set.diff free g.free in
  vs
  @ (if Col.Set.is_empty extra then []
     else [ { Verify.kind = Unresolved_column (List.hd (Col.Set.elements extra)); node = t } ])
  @
  if same_cols schema g.schema then []
  else
    [ { Verify.kind =
          Schema_mismatch
            (Printf.sprintf "group has %d columns, expression %d" (List.length g.schema)
               (List.length schema));
        node = t
      }
    ]

(* --- join enumeration into groups ------------------------------------ *)

(* Fill the groups of the block rooted at [e]'s join: one per connected
   vertex set, keyed on the set's leaf groups and what it applies
   ({!Join_order.within}); a set some graph filled before is shared,
   not enumerated again.  Each set gets both orientations of every
   csg-cmp pair, the index-lookup Apply into a single indexed base
   table, and, for a set of two vertices or the whole block, its single
   vertices entering unfiltered with their filters above the join.
   Below the whole block, an expression or a lifted filter the set's
   plans already beat is left out.  The whole block's group is [e]'s
   when the block outputs exactly its vertices' columns, else [e]'s
   group gets the block's projection over it.  [admit] verifies an
   expression; returns (kept, dups). *)
let fill m ~with_apply ~walk ~(admit : group option -> op -> bool) (e : gexpr) : int * int =
  (* a subtree stands for its group's first expression; with [walk], a
     vertex whose group has a member continuing the block is walked
     through that member *)
  let view o =
    match Phys.find_opt m.phys o with
    | Some gr when walk && not (Join_order.has_join o) -> (
        match List.find_opt (fun x -> Join_order.has_join x.node) (List.rev gr.exprs) with
        | Some x -> x.node
        | None -> o)
    | Some gr when not walk -> gr.first
    | _ -> o
  in
  let g = Join_order.isolate ~view e.node in
  let n = Array.length g.vertices in
  let kept = ref 0 and dups = ref 0 in
  if n >= 2 && n <= Join_order.max_vertices then begin
    let saved = m.env.hole_card in
    m.env.hole_card <- e.grp.hole_card;
    let tri (k : group) = let a = best k in (a.card, a.fd, a.cost) in
    (* an expression the set's plans already beat on cost and rows
       below one *)
    let beaten into (card, _, cost) =
      match into with
      | Some gr -> List.exists (fun (x : alt) -> dominates x { x with cost; card }) gr.front
      | None -> false
    in
    (* add [o] over [kids] to [into] (a new group when [None]); with
       [prune], not when [into]'s plans beat it *)
    let put ?(prune = false) into o kids =
      if prune && beaten into (Cost.step m.env m.cat o (List.map tri kids)) then into
      else if not (admit into o) then into
      else
        match add m ?into ~enum:true o kids with
        | Some x ->
            incr kept;
            Some x.grp
        | None ->
            incr dups;
            into
    in
    let raw = Array.map (fun v -> fst (insert m ~enum:true v)) g.vertices in
    let leaf =
      Array.mapi
        (fun v r ->
          match g.locals.(v) with
          | [] -> r
          | cs -> fst (insert m ~enum:true (Select (conj_list cs, r.first))))
        raw
    in
    let bit v = 1 lsl v in
    let single s = Join_order.popcount s = 1 in
    let vertex s = Join_order.popcount (s - 1) in
    let keys = Hashtbl.create 32 in
    let key ~unfiltered s =
      match Hashtbl.find_opt keys (unfiltered, s) with
      | Some k -> k
      | None ->
          let ids = ref [] in
          for v = n - 1 downto 0 do
            if s land bit v <> 0 then
              ids := (if unfiltered land bit v <> 0 then raw.(v) else leaf.(v)).gid :: !ids
          done;
          let k = (List.sort compare !ids, Join_order.within g s) in
          Hashtbl.replace keys (unfiltered, s) k;
          k
    in
    let full = (1 lsl n) - 1 in
    (* the block outputs exactly its vertices' columns: its group is
       the whole set's *)
    let bare =
      List.for_all (fun p -> match p.expr with ColRef c -> c.id = p.out.id | _ -> false) g.outs
      && same_cols
           (List.map (fun p -> p.out) g.outs)
           (List.concat_map (fun r -> r.schema) (Array.to_list raw))
    in
    let set_group ~unfiltered s =
      let k = key ~unfiltered s in
      match Hashtbl.find_opt m.sets k with
      | Some gr -> Some gr
      | None when s = full && unfiltered = 0 && bare ->
          Hashtbl.replace m.sets k e.grp;
          Some e.grp
      | None -> None
    in
    let remember ~unfiltered s = function
      | Some gr ->
          let k = key ~unfiltered s in
          if not (Hashtbl.mem m.sets k) then Hashtbl.replace m.sets k gr
      | None -> ()
    in
    let groups = Hashtbl.create 16 in
    Array.iteri (fun v gr -> Hashtbl.replace groups (bit v) gr) leaf;
    let whole = set_group ~unfiltered:0 full in
    let again = match whole with Some gr -> gr.filled && gr.lifted | None -> false in
    (* a graph whose whole set another graph filled needs only its
       projection *)
    if again then begin
      match whole with
      | Some gr when gr != e.grp -> ignore (put (Some e.grp) (Project (g.outs, gr.first)) [ gr ])
      | _ -> ()
    end
    else begin
      m.graphs <- m.graphs + 1;
      (* [a] joined to the single vertex set [sb] by index lookup under
         [pred], if it can be: [k] of the Apply and its filtered inner *)
      let index_probe pred sb a b k =
        if with_apply && single sb then
          match Join_order.index_apply ~cat:m.cat Inner pred a.first b.first with
          | Some (Apply { right = Select _ as right; _ } as o) -> [ k o right ]
          | _ -> []
        else []
      in
      (* sides (group, vertices entering unfiltered) l and r joined into
         the set group, both ways round and by index probe *)
      let join s (a, ua) (b, ub) l r =
        let unfiltered = ua lor ub in
        let target = ref (set_group ~unfiltered s) in
        let p_lr = Join_order.pred_between g l r and p_rl = Join_order.pred_between g r l in
        let probe pred sb a b =
          index_probe pred sb a b (fun o right ->
              let gr, right = insert m ~enum:true right in
              (Op.with_children o [ a.first; right ], [ a; gr ]))
        in
        let cands =
          [ (Join { kind = Inner; pred = p_lr; left = a.first; right = b.first }, [ a; b ]);
            (Join { kind = Inner; pred = p_rl; left = b.first; right = a.first }, [ b; a ])
          ]
          @ probe p_lr r a b @ probe p_rl l b a
        in
        (* one way of joining the pair that another beats on cost and
           rows is left out *)
        let costed = List.map (fun (o, kids) -> (o, kids, Cost.step m.env m.cat o (List.map tri kids))) cands in
        List.iteri
          (fun i (o, kids, (card, _, cost)) ->
            let beats j (_, _, (card', _, cost')) =
              j <> i && card' <= card && cost' <= cost && (cost' < cost || card' < card || j < i)
            in
            if not (List.exists Fun.id (List.mapi beats costed)) then
              target := put ~prune:(s <> full) !target o kids)
          costed;
        remember ~unfiltered s !target;
        !target
      in
      let sides s ~lift =
        (Hashtbl.find groups s, 0)
        :: (if lift && single s && g.locals.(vertex s) <> [] then [ (raw.(vertex s), s) ] else [])
      in
      let lifted u =
        List.concat (List.init n (fun v -> if u land bit v <> 0 then g.locals.(v) else []))
      in
      (* per set: [true] to fill, [false] when another graph filled it *)
      let plan = Hashtbl.create 16 in
      List.iter
        (fun (l, r) ->
          let s = l lor r in
          let lift = s = full || Join_order.popcount s = 2 in
          let fill_s =
            match Hashtbl.find_opt plan s with
            | Some f -> f
            | None ->
                let f =
                  match set_group ~unfiltered:0 s with
                  | Some gr when gr.filled && (gr.lifted || not lift) ->
                      Hashtbl.replace groups s gr;
                      m.sets_shared <- m.sets_shared + 1;
                      false
                  | _ ->
                      m.sets_filled <- m.sets_filled + 1;
                      true
                in
                Hashtbl.replace plan s f;
                f
          in
          if fill_s then
            List.iter
              (fun ((_, ua) as sa) ->
                List.iter
                  (fun ((_, ub) as sb) ->
                    (* a lifted filter the set's plans already beat,
                       over a join or a probe either way round, is left
                       out, unless it lifts a HAVING: the GroupBy rules
                       match a GroupBy directly below a join *)
                    let grouped v =
                      match g.vertices.(v) with GroupBy _ | LocalGroupBy _ -> true | _ -> false
                    in
                    let lift_beaten =
                      ua lor ub <> 0
                      && (not (List.exists (fun v -> (ua lor ub) land bit v <> 0 && grouped v) (List.init n Fun.id)))
                      &&
                      let a = fst sa and b = fst sb in
                      let over (o, t) =
                        beaten (set_group ~unfiltered:0 s)
                          (Cost.step m.env m.cat (Select (conj_list (lifted (ua lor ub)), o)) [ t ])
                      in
                      let plain =
                        let j = Join { kind = Inner; pred = Join_order.pred_between g l r; left = a.first; right = b.first } in
                        (j, Cost.step m.env m.cat j [ tri a; tri b ])
                      in
                      let probe pred sb a b =
                        index_probe pred sb a b (fun o right ->
                            (o, Cost.step m.env m.cat o [ tri a; Cost.step m.env m.cat right [ tri b ] ]))
                      in
                      List.for_all over
                        ((plain :: probe (Join_order.pred_between g l r) r a b)
                        @ probe (Join_order.pred_between g r l) l b a)
                    in
                    if not lift_beaten then
                    match join s sa sb l r with
                    | Some gr when ua lor ub = 0 -> Hashtbl.replace groups s gr
                    | Some u ->
                        let target = put (set_group ~unfiltered:0 s) (Select (conj_list (lifted (ua lor ub)), u.first)) [ u ] in
                        remember ~unfiltered:0 s target;
                        Option.iter (Hashtbl.replace groups s) target
                    | None -> ())
                  (sides r ~lift))
              (sides l ~lift))
        (List.stable_sort
           (fun (a, b) (c, d) -> compare (Join_order.popcount (a lor b)) (Join_order.popcount (c lor d)))
           (Join_order.ccp_pairs g.nbr));
      Hashtbl.iter
        (fun s f ->
          if f then
            match Hashtbl.find_opt groups s with
            | Some gr ->
                gr.filled <- true;
                if s = full || Join_order.popcount s = 2 then gr.lifted <- true
            | None -> ())
        plan;
      (match Hashtbl.find_opt groups full with
      | Some gr when gr != e.grp ->
          ignore (put (Some e.grp) (Project (g.outs, gr.first)) [ gr ])
      | _ -> ())
    end;
    m.env.hole_card <- saved
  end;
  (!kept, !dups)

(* --- extraction -------------------------------------------------------- *)

(* [t] over exactly [cols], in order *)
let restore cols t =
  if List.equal Col.equal (Op.schema t) cols then t else Op.project_restore cols t

(* The plans of [g]'s expressions, cheapest first, at most [k] *)
let plans k (g : group) : alt list =
  List.filteri (fun i _ -> i < k)
    (List.stable_sort (fun (a : alt) b -> Float.compare a.cost b.cost)
       (List.concat_map (fun e -> e.alts) (List.rev g.exprs)))

(* --- rules ---------------------------------------------------------------- *)

(* The shape a rule matches: an operator the predicate accepts, with
   patterns for its children, or any tree.  A binding takes, for each
   [Node] position, every member of the group there that matches; a
   [Cheapest] position only the group's cheapest member, if it
   matches; an [Any] position takes the group's proof ({!group.proof})
   and a [Node] with no child patterns its member as it stands. *)
type pat = Any | Node of (op -> bool) * pat list | Cheapest of (op -> bool)

(* A rule that fills the memo itself: at an expression [applies]
   accepts, [fill] enters its alternatives directly. *)
type expand = {
  applies : op -> bool;
  fill : memo -> walk:bool -> admit:(group option -> op -> bool) -> gexpr -> int * int;
}

type rule = { name : string; apply : op -> op list; pattern : pat list; expand : expand option }

let any_node = [ Node ((fun _ -> true), []) ]

let make_rule ?(pattern = any_node) name apply = { name; apply; pattern; expand = None }

(* [props]: the properties the GroupBy and property rules read for a
   node of a binding; [join_enumerate]: the [join-enumerate] rule. *)
let rules_with (cfg : Config.t) ~(props : op -> Fd.t) ~join_enumerate : rule list =
  let r name pattern f =
    make_rule ~pattern name (fun o -> match f o with Some t -> [ t ] | None -> [])
  in
  let join k = function Join { kind; _ } -> List.mem kind k | _ -> false in
  let inner = join [ Inner ] in
  let groupby = function GroupBy _ -> true | _ -> false in
  let select = function Select _ -> true | _ -> false in
  let local = function LocalGroupBy _ -> true | _ -> false in
  let is_sa = function SegmentApply _ -> true | _ -> false in
  let one p = Node (p, []) in
  (* the eager-aggregation rules mint fresh columns on every firing, so
     each split they fire on makes new groups and a new join graph:
     they see a group's cheapest split only *)
  List.concat
    [ (if cfg.groupby_reorder then
         [ r "groupby-pull-above-join"
             [ Node (inner, [ Any; one groupby ]); Node (inner, [ one groupby; Any ]) ]
             (Rules.Groupby_reorder.pull_above_join ~props);
           r "groupby-push-below-join" [ Node (groupby, [ one inner ]) ]
             (Rules.Groupby_reorder.push_below_join ~props);
           r "groupby-push-below-outerjoin" [ Node (groupby, [ one (join [ LeftOuter ]) ]) ]
             (Rules.Groupby_reorder.push_below_outerjoin ~props);
           r "semijoin-below-groupby" [ Node (join [ Semi; Anti ], [ one groupby; Any ]) ]
             Rules.Groupby_reorder.push_semijoin_below_groupby;
           r "semijoin-above-groupby" [ Node (groupby, [ one (join [ Semi; Anti ]) ]) ]
             Rules.Groupby_reorder.pull_semijoin_above_groupby;
           r "filter-below-groupby" [ Node (select, [ one groupby ]) ]
             Rules.Groupby_reorder.push_filter_below_groupby;
           r "filter-above-groupby" [ Node (groupby, [ one select ]) ]
             Rules.Groupby_reorder.pull_filter_above_groupby
         ]
       else []);
      (if cfg.local_agg then
         [ r "eager-local-aggregate" [ Node (groupby, [ Cheapest inner ]) ] Rules.Local_agg.eager_aggregate;
           r "local-groupby-below-join" [ Node (local, [ Cheapest inner ]) ]
             Rules.Local_agg.push_local_below_join;
           r "local-groupby-collapse" [ Node (groupby, [ one local ]) ] Rules.Local_agg.collapse_global
         ]
       else []);
      (if cfg.segment_apply then
         let j = function Join _ | Apply _ -> true | _ -> false in
         let under_project = Node ((function Project _ -> true | _ -> false), [ one is_sa ]) in
         [ r "segment-apply-intro"
             [ Node (j, [ Any; one (fun _ -> true) ]); Node (j, [ one (fun _ -> true); Any ]) ]
             Rules.Segment_apply.introduce;
           r "segment-apply-join-pushdown"
             [ Node (inner, [ one is_sa; Any ]);
               Node (inner, [ Any; one is_sa ]);
               Node (inner, [ under_project; Any ]);
               Node (inner, [ Any; under_project ])
             ]
             Rules.Segment_apply.push_join_below
         ]
       else []);
      (if cfg.property_rewrites then
         [ r "groupby-eliminate-key" [ one groupby ] (Rules.Property_rules.eliminate_groupby_on_key ~props);
           r "max1row-elide" [ one (function Max1row _ -> true | _ -> false) ]
             (Rules.Property_rules.elide_max1row ~props);
           r "semijoin-to-inner" [ one (join [ Semi ]) ] (Rules.Property_rules.semijoin_to_inner ~props);
           r "outerjoin-prune" [ Node ((function Project _ -> true | _ -> false), [ one (join [ LeftOuter ]) ]) ]
             (Rules.Property_rules.prune_unused_outerjoin ~props)
         ]
       else []);
      (if cfg.join_reorder || cfg.correlated_exec then [ join_enumerate ] else [])
    ]

(* [join-enumerate].  At the root join of a block, when [join_reorder],
   it fills the block's vertex sets into the memo ({!fill}); its tree
   view, for the prover, enters the tree into a memo of its own, fills
   it the same way and returns the block's plans, cheapest first.  At
   any other join, when [correlated_exec], it gives the join as an
   index-lookup Apply. *)
let join_enumerate (cfg : Config.t) stats ~env : rule =
  let expand =
    { applies = (fun o -> cfg.join_reorder && Join_order.is_join o);
      fill = (fun m ~walk ~admit e -> fill m ~with_apply:cfg.correlated_exec ~walk ~admit e)
    }
  in
  let apply (o : op) =
    if expand.applies o then begin
      let m = create_memo stats ~env o in
      let g, _ = insert m ~enum:false o in
      let e = List.nth g.exprs (List.length g.exprs - 1) in
      ignore (expand.fill m ~walk:true ~admit:(fun _ _ -> true) e);
      List.filter_map
        (fun (a : alt) -> if a.via == e then None else Some (restore (Op.schema o) (build a)))
        (plans max_int g)
    end
    else
      match o with
      | Join { kind; pred; left; right } when cfg.correlated_exec ->
          Option.to_list (Join_order.index_apply ~cat:(Stats.catalog stats) kind pred left right)
      | _ -> []
  in
  { name = "join-enumerate";
    apply;
    pattern = [ Node ((function Join _ | Apply _ -> true | _ -> false), []) ];
    expand = Some expand
  }

let rules_for cfg stats ~env =
  rules_with cfg ~props:(Fd.analyze ~env) ~join_enumerate:(join_enumerate cfg stats ~env)

(* One rule firing, with the local subtrees it rewrote — the evidence
   the integrity verifier needs to re-check the rewrite's side
   conditions. *)
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

(* apply [rule] at every node of [t], producing one firing per rewrite *)
let apply_everywhere_sites (rule : rule) (t : op) : firing list =
  List.fold_left
    (fun acc (node, path) ->
      List.fold_left
        (fun acc node' -> { site_before = node; site_after = node'; result = rebuild path node' } :: acc)
        acc (rule.apply node))
    [] (positions t)


(* --- the search -------------------------------------------------------- *)

(* Root members whose plans are costed whole for the final choice *)
let finalists = 8

let optimize ?(must = fun (_ : op) -> true) ?(record_trace = false) ?(verify = true)
    ?(extra_rules = []) (cfg : Config.t) (stats : Stats.t) ~(env : Props.env) (seed : op) :
    outcome =
  (* [must]: restrict the final choice to plans satisfying a predicate
     (used by the benches to force one strategy of the lattice);
     exploration itself is unrestricted.  Falls back to the seed when no
     plan qualifies.
     [verify]: verify every new expression locally before it enters the
     memo; an invalid one is dropped (never costed) and the offending
     rule is quarantined for the rest of this search.  Duplicates are
     found first and skip verification: the memo's copy was verified
     when admitted.
     [extra_rules] extends the configured rule set (tests use it to
     inject deliberately broken rules). *)
  let cat = Stats.catalog stats in
  let seed = Normalize.Simplify.cleanup seed in
  let expect_schema = Op.schema seed in
  let whole_cost t = Cost.cost { (Card.make_env stats t) with props = env } cat t in
  let seed_cost = whole_cost seed in
  let m = create_memo stats ~env seed in
  let props o = match Phys.find_opt m.exact o with Some fd -> fd | None -> Fd.analyze ~env o in
  let rules =
    rules_with cfg ~props ~join_enumerate:(join_enumerate cfg stats ~env) @ extra_rules
  in
  let root, _ = insert m ~enum:false seed in
  (* rule name -> first violation summary; consulted before every firing *)
  let quarantine : (string, string) Hashtbl.t = Hashtbl.create 4 in
  let quarantined name = Hashtbl.mem quarantine name in
  let total_invalid = ref 0 in
  let reject name (v : Verify.violation) =
    if not (quarantined name) then Hashtbl.replace quarantine name (Verify.violation_summary v);
    incr total_invalid
  in
  (* trace accumulation; dead weight unless [record_trace] *)
  let rounds = ref [] in
  let total_fired = ref 0 and total_dups = ref 0 in
  let exhausted = ref false in
  let round_stats : (string, rule_stat) Hashtbl.t = Hashtbl.create 16 in
  let bump name ~fired ~kept ~dups ~invalid =
    total_fired := !total_fired + fired;
    total_dups := !total_dups + dups;
    if record_trace then begin
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
        }
    end
  in
  let close_round survivors =
    if record_trace then begin
      let stats =
        List.sort
          (fun a b -> compare a.rule b.rule)
          (Hashtbl.fold (fun _ s acc -> s :: acc) round_stats [])
      in
      rounds := { round = m.pass; stats; survivors; best_cost_after = (best root).cost } :: !rounds;
      Hashtbl.reset round_stats
    end
  in
  let exception Budget_exhausted in
  let budget () = if m.nexprs >= cfg.max_alternatives then raise Budget_exhausted in
  (* a binding's newest input: its members' passes and the passes its
     groups' proofs last changed in *)
  let stamp (e : gexpr) = List.fold_left (fun st (k : group) -> max st k.fd_pass) e.pass e.kids in
  (* join enumeration enters each split both ways round; a pattern
     below the top sees one of the two *)
  let mirror (x : gexpr) =
    x.enum
    && match x.node, x.kids with Join _, [ l; r ] -> l.gid > r.gid | _ -> false
  in
  (* the bindings of [e] to pattern [p] over members made before this
     pass, with their stamps *)
  let rec bindings (e : gexpr) (p : pat) : (op * int) list =
    match p with
    | Any -> [ (e.ptree, stamp e) ]
    | Node (ok, _) | Cheapest ok when not (ok e.node) -> []
    | Node (_, []) | Cheapest _ -> [ (e.ptree, stamp e) ]
    | Node (_, pats) ->
        let opts =
          List.map2
            (fun (g : group) p ->
              match p with
              | Any -> [ (g.proof, g.fd_pass) ]
              | Cheapest ok -> (
                  (* the group's cheapest member, one way round; it
                     changes as the group's plans do *)
                  let cost (x : gexpr) = (cheapest_alt x.alts).cost in
                  match
                    List.filter (fun x -> x.alts <> [] && x.pass < m.pass && not (mirror x)) g.exprs
                  with
                  | [] -> []
                  | x :: xs ->
                      let x = List.fold_left (fun a y -> if cost y < cost a then y else a) x xs in
                      if ok x.node then List.map (fun (t, st) -> (t, max st g.best_pass)) (bindings x p)
                      else [])
              | p ->
                  List.concat_map
                    (fun (x : gexpr) -> if x.pass < m.pass && not (mirror x) then bindings x p else [])
                    g.exprs)
            e.kids pats
        in
        List.fold_right
          (fun opts acc ->
            List.concat_map (fun (t, st) -> List.map (fun (ts, st') -> (t :: ts, max st st')) acc) opts)
          opts
          [ ([], e.pass) ]
        |> List.map (fun (ts, st) ->
               ( (if List.for_all2 ( == ) ts (Op.children e.node) then e.node
                  else Op.with_children e.node ts),
                 st ))
  in
  (* admit rule [name]'s result [r] of binding [b] into [e]'s group *)
  let admit_result name (e : gexpr) b r =
    budget ();
    if not (quarantined name) then begin
      let g = e.grp in
      let c =
        let c = clean m r in
        if same_cols (Op.schema c) g.schema then c else clean m (fit g c)
      in
      let sh = lazy (shape m c) in
      if has m g c || Hashtbl.mem m.shapes (g.gid, Lazy.force sh) then
        bump name ~fired:1 ~kept:0 ~dups:1 ~invalid:0
      else
        let vs =
          if verify then
            match violations m g c with
            | [] -> Verify.check_rewrite ~env ~rule:name ~before:b ~after:r
            | vs -> vs
          else []
        in
        match vs with
        | v :: _ ->
            reject name v;
            bump name ~fired:1 ~kept:0 ~dups:0 ~invalid:1
        | [] -> (
            m.env.hole_card <- g.hole_card;
            let kids = insert_kids m ~enum:false c in
            let trees = List.map snd kids in
            let c = if List.for_all2 ( == ) trees (Op.children c) then c else Op.with_children c trees in
            match add m ~into:g ~enum:false c (List.map fst kids) with
            | Some _ ->
                Hashtbl.replace m.shapes (g.gid, Lazy.force sh) ();
                bump name ~fired:1 ~kept:1 ~dups:0 ~invalid:0
            | None -> bump name ~fired:1 ~kept:0 ~dups:1 ~invalid:0)
    end
  in
  (* join enumeration admits what verifies locally *)
  let admit_join name into o =
    (not verify)
    ||
    let vs =
      match into with Some g -> violations m g o | None -> fst (check_new m o)
    in
    match vs with
    | [] -> not (quarantined name)
    | v :: _ ->
        reject name v;
        bump name ~fired:1 ~kept:0 ~dups:0 ~invalid:1;
        false
  in
  (* the join a Select or Project reaches through members of its input
     group, Selects and Projects on the way: a block root once the memo
     walks through them *)
  let rec reach d (x : gexpr) =
    if d = 0 then None
    else
      match x.node, x.kids with
      | Select (p, _), _ when Expr.has_subquery p -> None
      | (Select _ | Project _), [ k ] ->
          List.find_map (fun y -> if Join_order.is_join y.node then Some y.node else reach (d - 1) y) k.exprs
      | _ -> None
  in
  let fire (e : gexpr) =
    List.iter
      (fun rule ->
        if not (quarantined rule.name) then
          match rule.expand with
          | Some x
            when x.applies e.node
                 || match e.node with Select _ -> Option.fold ~none:false ~some:x.applies (reach 3 e) | _ -> false ->
              if e.pass < m.pass && not e.enum then begin
                budget ();
                List.iter
                  (fun walk ->
                    let kept, dups = x.fill m ~walk ~admit:(admit_join rule.name) e in
                    bump rule.name ~fired:(kept + dups) ~kept ~dups ~invalid:0)
                  (if e.pass = m.pass - 1 then [ false; true ] else [ true ])
              end
          | _ ->
            List.iter
              (fun p ->
                List.iter
                  (fun (b, st) -> if st = m.pass - 1 then List.iter (admit_result rule.name e b) (rule.apply b))
                  (bindings e p))
              rule.pattern)
      rules
  in
  (try
     let continue = ref true in
     while !continue && m.pass < cfg.max_rounds do
       m.pass <- m.pass + 1;
       let before = m.nexprs in
       List.iter fire (List.rev m.all);
       close_round (m.nexprs - before);
       continue := m.nexprs > before
     done
   with Budget_exhausted ->
     exhausted := true;
     close_round 0);
  (* the final choice: the plans of the root's cheapest members and the
     seed, costed whole; the cheapest that [must] accepts and that
     verifies *)
  let plan_of ?swap a = Normalize.Simplify.cleanup (restore expect_schema (build ?swap a)) in
  let costed ts =
    List.filter_map (fun t -> if must t then Some (whole_cost t, t) else None) ts
  in
  let candidates =
    let from_root = costed (List.map (fun a -> plan_of a) (plans finalists root)) in
    if from_root <> [] || must seed then from_root
    else
      (* [must] rejects the cheapest plans: try each plan of each
         group, under the cheapest parents up to the root *)
      let rec climb visited (g : group) t =
        if g == root then Some t
        else
          match List.filter (fun p -> not (List.memq p.grp visited)) g.parents with
          | [] -> None
          | p :: ps ->
              let cost (x : gexpr) = match x.alts with [] -> infinity | a -> (cheapest_alt a).cost in
              let p = List.fold_left (fun x y -> if cost y < cost x then y else x) p ps in
              let kids = List.map (fun k -> if k == g then t else build (best k)) p.kids in
              climb (g :: visited) p.grp (Op.with_children p.node kids)
      in
      costed
        (List.concat_map
           (fun e ->
             List.filter_map
               (fun a ->
                 Option.map
                   (fun t -> Normalize.Simplify.cleanup (restore expect_schema t))
                   (climb [] e.grp (build a)))
               e.alts)
           (List.rev m.all))
  in
  let ranked =
    List.stable_sort (fun (a, _) (b, _) -> Float.compare a b)
      ((if must seed then [ (seed_cost, seed) ] else []) @ candidates)
  in
  let ok (_, t) = (not verify) || Verify.check ~expect_schema t = [] in
  let best_cost, best =
    match List.find_opt ok ranked with Some c -> c | None -> (seed_cost, seed)
  in
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
          groups = m.groups;
          group_exprs = m.nexprs;
          dpccp_graphs = m.graphs;
          dpccp_sets = m.sets_filled;
          dpccp_shared = m.sets_shared;
        }
    else None
  in
  { best; best_cost; explored = m.nexprs; seed_cost; trace; quarantined }
