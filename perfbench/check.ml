(** Correctness checks, run outside the timed region.

    Every executed statement is logged with its outcome. After the run
    the log is replayed in order against an independent oracle — the
    reference evaluator {!Sparql.Ref_eval} over an {!Rdf.Graph} built
    from the same generated triples — applying each update with
    {!Sparql.Ref_eval.apply_update} and comparing each read with the
    oracle's answer at that point of the stream. A read against a
    snapshot is compared with the oracle's answer at the snapshot's
    capture. The first answer to a text between two writes (or two
    captures) is kept in full and compared row by row; repeats keep
    only their row count. An oracle that times out leaves the read
    unchecked, which is reported and never counted as a pass. *)

type results = Sparql.Ref_eval.results

type outcome =
  | Rows of results  (** first answer to this text since the last write *)
  | Count of int  (** a repeat: its row count *)
  | Done  (** an update or capture that returned normally *)
  | Error of string  (** raised or timed out *)

type entry = { id : int; st : Gen.stmt; outcome : outcome }

type failure = { f_id : int; f_stmt : Gen.stmt option; f_msg : string }

type report = {
  mutable checked : int;
  mutable unchecked : int;
  mutable failures : failure list;  (** newest first *)
}

let new_report () = { checked = 0; unchecked = 0; failures = [] }

let fail r ?st id msg = r.failures <- { f_id = id; f_stmt = st; f_msg = msg } :: r.failures

(** Add [r]'s counts and failures to [into]. *)
let merge ~into r =
  into.checked <- into.checked + r.checked;
  into.unchecked <- into.unchecked + r.unchecked;
  into.failures <- r.failures @ into.failures

let oracle_timeout = 20.0

let row_count (r : results) = List.length r.Sparql.Ref_eval.rows

(* Oracle answer without LIMIT/OFFSET (the check needs the full answer
   to accept any valid slice); [None] when the oracle timed out. *)
let oracle graph text =
  let q = Sparql.Parser.parse text in
  match
    Sparql.Ref_eval.eval ~timeout:oracle_timeout graph (Fuzz.Runner.strip_modifiers q)
  with
  | full -> Some (q, full)
  | exception Sparql.Ref_eval.Timeout -> None

let verify (q, full) outcome =
  match outcome with
  | Rows got -> Fuzz.Runner.check_equiv q ~oracle_full:full got
  | Count n ->
    let expected =
      List.length
        (Fuzz.Runner.slice ?offset:q.Sparql.Ast.offset ?limit:q.Sparql.Ast.limit
           full.Sparql.Ref_eval.rows)
    in
    if n = expected then Ok ()
    else Error (Printf.sprintf "row count: oracle %d, engine %d" expected n)
  | Done -> Error "read returned no answer"
  | Error e -> Error e

(** Replay [log] against [graph], which must hold the dataset as it
    was before the first logged statement; [graph] ends in the state
    the engine should be in. *)
let replay (r : report) graph (log : entry array) =
  (* Oracle answers keyed by (graph version, text): a live read asks at
     the current version, a snapshot read at its capture's. *)
  let memo = Hashtbl.create 1024 and version = ref 0 and captured = ref 0 in
  let answer v text =
    match Hashtbl.find_opt memo (v, text) with
    | Some a -> a
    | None ->
      let a = oracle graph text in
      Hashtbl.replace memo (v, text) a;
      a
  in
  let check_read v e =
    match answer v e.st.Gen.text with
    | None -> r.unchecked <- r.unchecked + 1
    | Some expected ->
      (match verify expected e.outcome with
       | Ok () -> r.checked <- r.checked + 1
       | Error msg -> fail r ~st:e.st e.id msg)
  in
  Array.iteri
    (fun i e ->
      match e.st.Gen.kind, e.outcome with
      | _, Error msg -> fail r ~st:e.st e.id msg
      | Gen.Read, _ -> check_read !version e
      | Gen.Snapshot_read, _ -> check_read !captured e
      | Gen.Capture, _ ->
        (* Answer now every snapshot read up to the next capture, and
           forget answers no later read can ask for. *)
        captured := !version;
        Hashtbl.filter_map_inplace
          (fun (v, _) a -> if v < !captured then None else Some a)
          memo;
        let rec ahead j =
          if j < Array.length log && log.(j).st.Gen.kind <> Gen.Capture then begin
            if log.(j).st.Gen.kind = Gen.Snapshot_read then
              ignore (answer !captured log.(j).st.Gen.text);
            ahead (j + 1)
          end
        in
        ahead (i + 1)
      | (Gen.Insert_data | Gen.Delete_data | Gen.Delete_where), _ ->
        Sparql.Ref_eval.apply_update graph (Sparql.Parser.parse_update e.st.Gen.text);
        incr version)
    log

let dump_src = "SELECT ?s ?p ?o WHERE { ?s ?p ?o }"

let triple_line s p o =
  String.concat " " [ Rdf.Term.to_string s; Rdf.Term.to_string p; Rdf.Term.to_string o ]

(** The engine's whole store must equal the oracle graph. *)
let dump_equal e graph =
  let got =
    List.map
      (function
        | [ Some s; Some p; Some o ] -> triple_line s p o
        | _ -> "<unbound>")
      (Db2rdf.Engine.query_string e dump_src).Sparql.Ref_eval.rows
  in
  let expected = ref [] in
  Rdf.Graph.iter_triples
    (fun t -> expected := triple_line t.Rdf.Triple.s t.Rdf.Triple.p t.Rdf.Triple.o :: !expected)
    graph;
  let got = List.sort String.compare got
  and expected = List.sort String.compare !expected in
  if got = expected then Ok (List.length got)
  else begin
    let rec first_diff = function
      | a :: ra, b :: rb -> if a = b then first_diff (ra, rb) else Printf.sprintf "%s vs %s" a b
      | a :: _, [] -> "extra " ^ a
      | [], b :: _ -> "missing " ^ b
      | [], [] -> "?"
    in
    Error
      (Printf.sprintf "store holds %d triples, oracle %d; first difference: %s"
         (List.length got) (List.length expected) (first_diff (got, expected)))
  end

(** Same answer twice, up to row order; under LIMIT only the count is
    fixed (a re-translated plan may pick another valid slice). *)
let same_answer text (a : results) (b : results) =
  match (Sparql.Parser.parse text).Sparql.Ast.limit with
  | Some _ -> row_count a = row_count b
  | None -> Sparql.Ref_eval.equal_results a b
