(* Typed, unboxed columns: one flat array per value kind plus a NULL
   bitmap, with a boxed fallback for columns that mix kinds.  Built
   once per table generation by the columnar cache (Table.columns) and
   produced by every vectorized kernel, so scans, filters, join and
   grouping keys and aggregates run over [int]/[float]/[string]
   arrays; [Value.t] appears only where a row leaves the engine or a
   column really mixes kinds. *)

module Value = Relalg.Value

type nulls = Bytes.t

type t =
  | Ints of int array * nulls
  | Floats of float array * nulls
  | Strs of string array * nulls
  | Dates of int array * nulls
  | Bools of bool array * nulls
  | Boxed of Value.t array

(* --- NULL bitmaps ------------------------------------------------------ *)

let no_nulls = Bytes.empty
let has_nulls (m : nulls) = Bytes.length m > 0

let null_at (m : nulls) i =
  Bytes.length m > 0
  && Char.code (Bytes.unsafe_get m (i lsr 3)) land (1 lsl (i land 7)) <> 0

let make_nulls n = Bytes.make ((n + 7) lsr 3) '\000'

let set_null (m : nulls) i =
  let b = i lsr 3 in
  Bytes.unsafe_set m b
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get m b) lor (1 lsl (i land 7))))

let union_nulls n (a : nulls) (b : nulls) : nulls =
  if not (has_nulls a) then b
  else if not (has_nulls b) then a
  else begin
    let m = make_nulls n in
    for k = 0 to Bytes.length m - 1 do
      Bytes.unsafe_set m k
        (Char.unsafe_chr
           (Char.code (Bytes.unsafe_get a k) lor Char.code (Bytes.unsafe_get b k)))
    done;
    m
  end

(* --- access ----------------------------------------------------------- *)

let length = function
  | Ints (a, _) | Dates (a, _) -> Array.length a
  | Floats (a, _) -> Array.length a
  | Strs (a, _) -> Array.length a
  | Bools (a, _) -> Array.length a
  | Boxed a -> Array.length a

let is_null c i =
  match c with
  | Ints (_, m) | Floats (_, m) | Strs (_, m) | Dates (_, m) | Bools (_, m) -> null_at m i
  | Boxed a -> Value.is_null a.(i)

let get c i : Value.t =
  match c with
  | Ints (a, m) -> if null_at m i then Value.Null else Value.Int a.(i)
  | Floats (a, m) -> if null_at m i then Value.Null else Value.Float a.(i)
  | Strs (a, m) -> if null_at m i then Value.Null else Value.Str a.(i)
  | Dates (a, m) -> if null_at m i then Value.Null else Value.Date a.(i)
  | Bools (a, m) -> if null_at m i then Value.Null else Value.Bool a.(i)
  | Boxed a -> a.(i)

(* --- construction ----------------------------------------------------- *)

(* The one kind every non-NULL value shares: [Some ty], or [None] when
   they mix kinds or there are none (the boxed fallback). *)
let common_kind n (f : int -> Value.t) : Value.ty option =
  let rec go i k =
    if i >= n then k
    else
      match (Value.type_of (f i), k) with
      | None, _ -> go (i + 1) k
      | Some t, None -> go (i + 1) (Some t)
      | Some t, Some k' -> if t = k' then go (i + 1) k else None
  in
  (* first non-NULL value fixes the kind; a later mismatch ends it *)
  let rec first i =
    if i >= n then None
    else match Value.type_of (f i) with None -> first (i + 1) | Some t -> go (i + 1) (Some t)
  in
  first 0

let init n (f : int -> Value.t) : t =
  match common_kind n f with
  | None -> Boxed (Array.init n f)
  | Some ty ->
      (* the one kind is known, so anything else at a row is NULL *)
      let m = ref no_nulls in
      let null i =
        if not (has_nulls !m) then m := make_nulls n;
        set_null !m i
      in
      match ty with
      | Value.TInt | Value.TDate ->
          let a = Array.make n 0 in
          for i = 0 to n - 1 do
            match f i with Value.Int k | Value.Date k -> a.(i) <- k | _ -> null i
          done;
          if ty = Value.TInt then Ints (a, !m) else Dates (a, !m)
      | Value.TFloat ->
          let a = Array.make n 0. in
          for i = 0 to n - 1 do
            match f i with Value.Float x -> a.(i) <- x | _ -> null i
          done;
          Floats (a, !m)
      | Value.TStr ->
          let a = Array.make n "" in
          for i = 0 to n - 1 do
            match f i with Value.Str s -> a.(i) <- s | _ -> null i
          done;
          Strs (a, !m)
      | Value.TBool ->
          let a = Array.make n false in
          for i = 0 to n - 1 do
            match f i with Value.Bool b -> a.(i) <- b | _ -> null i
          done;
          Bools (a, !m)

let of_values (vs : Value.t array) : t =
  match common_kind (Array.length vs) (Array.get vs) with
  | None -> Boxed vs
  | Some _ -> init (Array.length vs) (Array.get vs)

let nulls n = Boxed (Array.make n Value.Null)

let const n (v : Value.t) : t =
  match v with
  | Value.Int k -> Ints (Array.make n k, no_nulls)
  | Value.Float x -> Floats (Array.make n x, no_nulls)
  | Value.Str s -> Strs (Array.make n s, no_nulls)
  | Value.Date d -> Dates (Array.make n d, no_nulls)
  | Value.Bool b -> Bools (Array.make n b, no_nulls)
  | Value.Null -> nulls n

(* --- gathers ---------------------------------------------------------- *)

let gather_nulls (m : nulls) (idx : int array) : nulls =
  if not (has_nulls m) then no_nulls
  else begin
    let n = Array.length idx in
    let out = make_nulls n in
    let any = ref false in
    for k = 0 to n - 1 do
      if null_at m idx.(k) then begin
        set_null out k;
        any := true
      end
    done;
    if !any then out else no_nulls
  end

let gather_ints (a : int array) (idx : int array) : int array =
  let n = Array.length idx in
  let out = Array.make n 0 in
  for k = 0 to n - 1 do
    Array.unsafe_set out k a.(Array.unsafe_get idx k)
  done;
  out

let gather c (idx : int array) : t =
  match c with
  | Ints (a, m) -> Ints (gather_ints a idx, gather_nulls m idx)
  | Dates (a, m) -> Dates (gather_ints a idx, gather_nulls m idx)
  | Floats (a, m) ->
      let n = Array.length idx in
      let out = Array.make n 0. in
      for k = 0 to n - 1 do
        Array.unsafe_set out k a.(Array.unsafe_get idx k)
      done;
      Floats (out, gather_nulls m idx)
  | Strs (a, m) -> Strs (Array.map (fun i -> a.(i)) idx, gather_nulls m idx)
  | Bools (a, m) -> Bools (Array.map (fun i -> a.(i)) idx, gather_nulls m idx)
  | Boxed a -> Boxed (Array.map (fun i -> a.(i)) idx)

let gather_padded c (idx : int array) : t =
  if Array.for_all (fun i -> i >= 0) idx then gather c idx
  else if length c = 0 then nulls (Array.length idx)
  else
    (* gather row 0 in place of each pad, then mark the pads NULL *)
    let with_nulls m = function
      | Ints (a, _) -> Ints (a, m)
      | Dates (a, _) -> Dates (a, m)
      | Floats (a, _) -> Floats (a, m)
      | Strs (a, _) -> Strs (a, m)
      | Bools (a, _) -> Bools (a, m)
      | Boxed a -> Boxed (Array.mapi (fun k v -> if idx.(k) < 0 then Value.Null else v) a)
    in
    let m = make_nulls (Array.length idx) in
    Array.iteri (fun k i -> if i < 0 || is_null c i then set_null m k) idx;
    with_nulls m (gather c (Array.map (fun i -> max i 0) idx))

(* --- concatenation ---------------------------------------------------- *)

let concat (cs : t list) : t =
  match cs with
  | [ c ] -> c
  | _ ->
      let n = List.fold_left (fun acc c -> acc + length c) 0 cs in
      let same_kind =
        match cs with
        | [] -> false
        | c0 :: rest ->
            let tag = function
              | Ints _ -> 0 | Floats _ -> 1 | Strs _ -> 2 | Dates _ -> 3 | Bools _ -> 4
              | Boxed _ -> 5
            in
            List.for_all (fun c -> tag c = tag c0) rest
      in
      if not same_kind then begin
        (* kinds differ: box, then let [of_values] re-type when the
           differing inputs were all NULL *)
        let out = Array.make n Value.Null in
        let off = ref 0 in
        List.iter
          (fun c ->
            for i = 0 to length c - 1 do
              out.(!off + i) <- get c i
            done;
            off := !off + length c)
          cs;
        of_values out
      end
      else begin
        let m =
          if List.exists (function
               | Ints (_, m) | Floats (_, m) | Strs (_, m) | Dates (_, m) | Bools (_, m) ->
                   has_nulls m
               | Boxed _ -> false) cs
          then begin
            let out = make_nulls n in
            let off = ref 0 in
            List.iter
              (fun c ->
                for i = 0 to length c - 1 do
                  if is_null c i then set_null out (!off + i)
                done;
                off := !off + length c)
              cs;
            out
          end
          else no_nulls
        in
        match List.hd cs with
        | Ints _ -> Ints (Array.concat (List.map (function Ints (a, _) -> a | _ -> [||]) cs), m)
        | Dates _ ->
            Dates (Array.concat (List.map (function Dates (a, _) -> a | _ -> [||]) cs), m)
        | Floats _ ->
            Floats (Array.concat (List.map (function Floats (a, _) -> a | _ -> [||]) cs), m)
        | Strs _ -> Strs (Array.concat (List.map (function Strs (a, _) -> a | _ -> [||]) cs), m)
        | Bools _ ->
            Bools (Array.concat (List.map (function Bools (a, _) -> a | _ -> [||]) cs), m)
        | Boxed _ -> Boxed (Array.concat (List.map (function Boxed a -> a | _ -> [||]) cs))
      end

(* --- equality --------------------------------------------------------- *)

let equal_at a i b j =
  match (a, b) with
  | Ints (x, mx), Ints (y, my) | Dates (x, mx), Dates (y, my) ->
      let nx = null_at mx i and ny = null_at my j in
      if nx || ny then nx && ny else x.(i) = y.(j)
  | Strs (x, mx), Strs (y, my) ->
      let nx = null_at mx i and ny = null_at my j in
      if nx || ny then nx && ny else String.equal x.(i) y.(j)
  | Floats (x, mx), Floats (y, my) ->
      let nx = null_at mx i and ny = null_at my j in
      if nx || ny then nx && ny else Float.compare x.(i) y.(j) = 0
  | _ -> Value.equal (get a i) (get b j)
