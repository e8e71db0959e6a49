(* Typed errors for the whole query pipeline.

   Every failure a query can hit — lexing, parsing, binding,
   normalization, planning, execution, budget exhaustion, injected
   faults — is classified into one structured value, so the engine's
   checked entry points ([Engine.prepare_checked], [execute_checked],
   [query_checked]) can return diagnostics instead of leaking ad-hoc
   exceptions, and the degradation logic can decide which failures are
   worth retrying on the correlated plan.

   Recoverability is the key split: [Runtime]/[Budget]/[Fault] errors
   are properties of the *chosen plan or its execution*, so a different
   plan for the same SQL may succeed; [Lex]/[Parse]/[Bind] errors are
   properties of the query text and retrying is pointless. *)

type phase =
  | Lex  (** tokenizer rejection *)
  | Parse  (** grammar rejection *)
  | Bind  (** name resolution / typing *)
  | Normalize  (** Apply introduction / removal, simplification *)
  | Plan  (** cost-based search *)
  | Invalid_plan
      (** a plan failed the integrity verifier ({!Relalg.Verify}) *)
  | Runtime  (** executor error (e.g. Max1row violation) *)
  | Budget  (** budget exhausted mid-execution *)
  | Fault  (** injected fault (testing harness) *)
  | Storage
      (** durable-store corruption ({!Storage.Codec.Storage_corrupt}):
          the on-disk state cannot be restored to an exact committed
          prefix *)

type t = {
  phase : phase;
  message : string;
  position : int option;  (** character offset into the SQL text, when known *)
  sql : string option;  (** the offending query text, when known *)
}

exception Error of t

let make ?position ?sql phase message = { phase; message; position; sql }

let phase_to_string = function
  | Lex -> "lex"
  | Parse -> "parse"
  | Bind -> "bind"
  | Normalize -> "normalize"
  | Plan -> "plan"
  | Invalid_plan -> "invalid-plan"
  | Runtime -> "runtime"
  | Budget -> "budget"
  | Fault -> "fault"
  | Storage -> "storage"

(* Point at the offending character:  "select 1 ^ 2"  with a caret line. *)
let context_snippet (sql : string) (pos : int) : string =
  let n = String.length sql in
  let pos = max 0 (min pos (max 0 (n - 1))) in
  let from = max 0 (pos - 30) and upto = min n (pos + 30) in
  let excerpt = String.sub sql from (upto - from) in
  let excerpt = String.map (function '\n' | '\t' -> ' ' | c -> c) excerpt in
  Printf.sprintf "%s\n%s^" excerpt (String.make (pos - from) ' ')

let to_string (e : t) : string =
  let base = Printf.sprintf "%s error: %s" (phase_to_string e.phase) e.message in
  match (e.position, e.sql) with
  | Some p, Some sql -> Printf.sprintf "%s\n  at position %d:\n%s" base p (context_snippet sql p)
  | Some p, None -> Printf.sprintf "%s (at position %d)" base p
  | None, _ -> base

(* A recoverable error may vanish under a different plan for the same
   SQL; an unrecoverable one is wrong however it is planned. *)
let recoverable (e : t) : bool =
  match e.phase with
  | Runtime | Budget | Fault | Normalize | Plan | Invalid_plan -> true
  (* a corrupt store is wrong however the query is planned *)
  | Lex | Parse | Bind | Storage -> false

(* Classify any exception the pipeline can raise.  [sql] enriches the
   diagnostic with source context when available. *)
let of_exn ?sql (exn : exn) : t option =
  match exn with
  | Error e -> Some { e with sql = (match e.sql with None -> sql | s -> s) }
  | Sqlfront.Lexer.Lex_error (m, pos) -> Some (make ~position:pos ?sql Lex m)
  | Sqlfront.Parser.Parse_error m -> Some (make ?sql Parse m)
  | Sqlfront.Binder.Bind_error m -> Some (make ?sql Bind m)
  | Normalize.Decorrelate.Internal_error m -> Some (make ?sql Normalize m)
  | Exec.Executor.Runtime_error m -> Some (make ?sql Runtime m)
  | Exec.Budget.Exceeded (trip, progress) ->
      Some (make ?sql Budget (Exec.Budget.to_string trip progress))
  | Exec.Faults.Injected { kind; call } ->
      Some (make ?sql Fault (Exec.Faults.injected_to_string kind call))
  | Storage.Codec.Storage_corrupt m -> Some (make ?sql Storage m)
  | Relalg.Invariant.Broken m -> Some (make ?sql Plan ("broken invariant: " ^ m))
  | Storage.Io_faults.Crash { kind; op } ->
      Some (make ?sql Fault (Storage.Io_faults.crash_to_string kind op))
  | _ -> None

(* Run [f], converting every pipeline exception into [Result.Error].
   Exceptions outside the pipeline vocabulary (Stack_overflow,
   Out_of_memory, asserts) still propagate. *)
let protect ?sql (f : unit -> 'a) : ('a, t) result =
  try Ok (f ()) with
  | exn -> ( match of_exn ?sql exn with Some e -> Result.Error e | None -> raise exn)
