(** Executing statements against one engine: the engine's own path,
    the traced path with a span per layer, and the bookkeeping the
    checks need. *)

module E = Db2rdf.Engine

(** The benchmark always runs the engine's default options. *)
let options = E.default_options

let layout () = Db2rdf.Layout.make ~dph_cols:24 ~rph_cols:24
let stmt_timeout = 30.0
let now = Unix.gettimeofday

(** Observations of the traced path, shared by every traced session. *)
type traced = {
  tr : Trace.t;
  ops : Relsql.Opstats.t Queue.t;  (** analyzed executor trees of traced reads *)
  mutable hits : int;
  mutable misses : int;
  mutable stale : int;
  mutable drift_checks : int;
}

let new_traced () =
  { tr = Trace.create (); ops = Queue.create (); hits = 0; misses = 0; stale = 0;
    drift_checks = 0 }

type t = {
  engine : E.t;
  mutable snap : E.snapshot option;
  snap_answers : (string, Check.results) Hashtbl.t;
      (** first answer per text from the current snapshot *)
  live_seen : (string, unit) Hashtbl.t;  (** texts answered since the last write *)
  mutable log : Check.entry list;  (** newest first *)
  report : Check.report;  (** shared by the sessions of one run *)
  traced : traced option;
  mirror : (string, int) Hashtbl.t;
      (** traced runs: the texts an LRU of the statement cache's
          capacity would still hold, by last use — a miss on one of them
          is a stale entry *)
  mutable clock : int;
}

let create ?traced report engine =
  { engine; snap = None; snap_answers = Hashtbl.create 64; live_seen = Hashtbl.create 1024;
    log = []; report; traced; mirror = Hashtbl.create 128; clock = 0 }

(* [Engine.plan_cache_stats] does not expose its capacity; this is the
   default the engine creates its cache with. *)
let cache_capacity = 64

(* Statement-cache bookkeeping around a call that consults it. *)
let with_cache_counters s t text f =
  let before = E.plan_cache_stats s.engine in
  let r = f () in
  let hit =
    (E.plan_cache_stats s.engine).Relsql.Plan_cache.hits > before.Relsql.Plan_cache.hits
  in
  if hit then t.hits <- t.hits + 1
  else begin
    t.misses <- t.misses + 1;
    if Hashtbl.mem s.mirror text then t.stale <- t.stale + 1
  end;
  s.clock <- s.clock + 1;
  Hashtbl.replace s.mirror text s.clock;
  if Hashtbl.length s.mirror > cache_capacity then begin
    let victim =
      Hashtbl.fold
        (fun k c acc -> match acc with Some (_, c') when c' <= c -> acc | _ -> Some (k, c))
        s.mirror None
    in
    Option.iter (fun (k, _) -> Hashtbl.remove s.mirror k) victim
  end;
  (r, hit)

(** The spans [Engine.query_string] skips on a statement-cache hit. *)
let translation_layers =
  [ "parser.parse"; "pattern_tree.build"; "dataflow.compute"; "exec_tree.build";
    "merge.of_exec"; "sqlgen.generate" ]

(* Plan every CTE and the body the way the executor does, without
   executing: CTE names resolve to empty placeholder tables. *)
let plan_statement db (stmt : Relsql.Sql_ast.stmt) =
  let scope = Relsql.Database.overlay db in
  List.iter
    (fun (name, q) ->
      ignore (Relsql.Planner.plan_query scope q);
      Relsql.Database.add_table scope (Relsql.Table.create name (Relsql.Schema.make [])))
    stmt.Relsql.Sql_ast.ctes;
  ignore (Relsql.Planner.plan_query scope stmt.Relsql.Sql_ast.body)

(** A live read with every layer called one by one, in the order
    [Engine.translate] and [Engine.query_string] call them, each in its
    own span; then the drift guards: the SQL must equal
    [Engine.translate]'s and the rows [Engine.query_string]'s. *)
let traced_read s t ~id text =
  let e = s.engine in
  let loader = E.loader e in
  let db = Db2rdf.Loader.database loader in
  let dict = Db2rdf.Loader.dictionary loader in
  let sp name f = Trace.span t.tr ~stmt:id name f in
  let root = t.tr.Trace.n in
  let q, sql, res =
    sp "read" (fun () ->
        let q = sp "parser.parse" (fun () -> Sparql.Parser.parse text) in
        let pt = sp "pattern_tree.build" (fun () -> Sparql.Pattern_tree.of_query q) in
        let objective = if options.E.optimize then Db2rdf.Dataflow.Best else Db2rdf.Dataflow.Worst in
        let _, flow =
          sp "dataflow.compute" (fun () ->
              Db2rdf.Dataflow.compute ~objective pt (Db2rdf.Loader.stats loader) dict)
        in
        let etree =
          sp "exec_tree.build" (fun () ->
              if options.E.late_fuse then Db2rdf.Exec_tree.build pt flow
              else Db2rdf.Exec_tree.build_syntactic pt flow)
        in
        let plan = sp "merge.of_exec" (fun () -> Db2rdf.Merge.of_exec (E.merge_ctx e pt q) etree) in
        let extvp = if options.E.extvp then E.extvp_registry e else None in
        let sql =
          sp "sqlgen.generate" (fun () ->
              Db2rdf.Sqlgen.generate ~wcoj:options.E.wcoj ?extvp loader pt plan q)
        in
        sp "planner.plan" (fun () -> plan_statement db sql);
        let r, st =
          sp "executor.run" (fun () -> Relsql.Executor.run_analyzed ~timeout:stmt_timeout db sql)
        in
        Queue.push st t.ops;
        let res = sp "results.decode" (fun () -> Db2rdf.Results.decode dict q r) in
        (q, sql, res))
  in
  t.drift_checks <- t.drift_checks + 1;
  if Relsql.Sql_pp.to_string sql <> Relsql.Sql_pp.to_string (E.translate e q) then
    failwith "drift: traced SQL differs from Engine.translate";
  let res', hit =
    with_cache_counters s t text (fun () -> E.query_string ~timeout:stmt_timeout e text)
  in
  if hit then Trace.mark_off_path t.tr ~root translation_layers;
  if res.Sparql.Ref_eval.vars <> res'.Sparql.Ref_eval.vars
     || res.Sparql.Ref_eval.rows <> res'.Sparql.Ref_eval.rows
  then failwith "drift: traced rows differ from Engine.query_string";
  res

type result = R_rows of Check.results | R_done | R_snap of E.snapshot

let current_snapshot s =
  match s.snap with Some sn -> sn | None -> failwith "no snapshot captured yet"

(* One statement the way the engine's users run it. *)
let exec_plain s (st : Gen.stmt) =
  match st.Gen.kind with
  | Gen.Read -> R_rows (E.query_string ~timeout:stmt_timeout s.engine st.Gen.text)
  | Gen.Snapshot_read ->
    R_rows (E.snapshot_query_string ~timeout:stmt_timeout (current_snapshot s) st.Gen.text)
  | Gen.Insert_data | Gen.Delete_data | Gen.Delete_where ->
    E.update_string s.engine st.Gen.text;
    R_done
  | Gen.Capture -> R_snap (E.snapshot s.engine)

(* The same statement under the tracer; returns the statement's time on
   the engine's own path (the translation spans a statement-cache hit
   skips are left out). *)
let exec_traced s t ~id (st : Gen.stmt) =
  let sp name f = Trace.span t.tr ~stmt:id name f in
  let root = t.tr.Trace.n in
  let r =
    match st.Gen.kind with
    | Gen.Read -> R_rows (traced_read s t ~id st.Gen.text)
    | Gen.Snapshot_read ->
      let sn = current_snapshot s in
      sp "snapshot_read" (fun () ->
          let r, _ =
            with_cache_counters s t st.Gen.text (fun () ->
                sp "engine.snapshot_query" (fun () ->
                    E.snapshot_query_string ~timeout:stmt_timeout sn st.Gen.text))
          in
          R_rows r)
    | Gen.Insert_data | Gen.Delete_data | Gen.Delete_where ->
      let k = Gen.kind_name st.Gen.kind in
      sp k (fun () ->
          let u = sp "parser.parse_update" (fun () -> Sparql.Parser.parse_update st.Gen.text) in
          sp ("engine." ^ k) (fun () -> E.update s.engine u);
          R_done)
    | Gen.Capture ->
      sp "capture" (fun () -> R_snap (sp "engine.snapshot_capture" (fun () -> E.snapshot s.engine)))
  in
  let spans = t.tr.Trace.spans in
  let path = ref (Trace.duration spans.(root)) in
  for i = root + 1 to t.tr.Trace.n - 1 do
    if spans.(i).Trace.off_path then path := !path -. Trace.duration spans.(i)
  done;
  (r, !path)

(** A snapshot's answers must not move under later writes: re-ask every
    text it answered and compare. *)
let check_snapshot_stable s =
  match s.snap with
  | None -> ()
  | Some sn ->
    Hashtbl.iter
      (fun text first ->
        match E.snapshot_query_string ~timeout:stmt_timeout sn text with
        | again ->
          if not (Check.same_answer text first again) then
            Check.fail s.report (-1) ("snapshot answer changed under later writes: " ^ text)
        | exception ex ->
          Check.fail s.report (-1)
            ("snapshot re-read raised " ^ Printexc.to_string ex ^ ": " ^ text))
      s.snap_answers

let log s id st outcome = s.log <- { Check.id; st; outcome } :: s.log

(** Run statement [id] and record its outcome. Returns its latency
    (its time on the engine's own path when traced) and the seconds
    spent on checks that must not count as timed. *)
let step s ~id (st : Gen.stmt) =
  let outcome, dt =
    match s.traced with
    | None ->
      let t0 = now () in
      let r = try Ok (exec_plain s st) with ex -> Error ex in
      (r, now () -. t0)
    | Some t ->
      (match exec_traced s t ~id st with
       | r, path -> (Ok r, path)
       | exception ex -> (Error ex, 0.0))
  in
  let p0 = now () in
  (match outcome with
   | Ok (R_rows r) ->
     let seen =
       match st.Gen.kind with
       | Gen.Snapshot_read -> Hashtbl.mem s.snap_answers st.Gen.text
       | _ -> Hashtbl.mem s.live_seen st.Gen.text
     in
     if seen then log s id st (Check.Count (Check.row_count r))
     else begin
       (match st.Gen.kind with
        | Gen.Snapshot_read -> Hashtbl.replace s.snap_answers st.Gen.text r
        | _ -> Hashtbl.replace s.live_seen st.Gen.text ());
       log s id st (Check.Rows r)
     end
   | Ok R_done ->
     Hashtbl.reset s.live_seen;
     log s id st Check.Done
   | Ok (R_snap sn) ->
     check_snapshot_stable s;
     s.snap <- Some sn;
     Hashtbl.reset s.snap_answers;
     log s id st Check.Done
   | Error ex ->
     if Gen.is_update st.Gen.kind then Hashtbl.reset s.live_seen;
     log s id st (Check.Error (Printexc.to_string ex)));
  (* Only the snapshot re-reads weigh enough to matter; the rest of the
     bookkeeping stays inside the timed wall. *)
  (dt, match outcome with Ok (R_snap _) -> now () -. p0 | _ -> 0.0)
