(** One benchmark run: set-up, the timed closed loop with the write
    probe interleaved, the correctness checks and the metrics. *)

open Cli
module E = Db2rdf.Engine

let now = Session.now

(** Builds timed per run: the reads' store, builds that are timed and
    dropped, and the probe's store; [setup_s] is their median. The
    first build also grows the heap, so it runs slower than the rest;
    with five, the median is a build on a grown heap. *)
let setup_builds = 5

(** Seconds of the timed loop the traced run replays. *)
let trace_seconds = 5.0

let lubm_scale = 200_000
let dbpedia_scale = 100_000

(* Both workloads interleave a write probe with their reads, spread
   evenly over the timed loop but run on a store of its own, so the
   reads stay read-only and the probe is measured under the same host
   conditions. The probe is a sequence of captures, each followed by
   writes (so every snapshot must hold still under later writes, and
   every write lands on tables a capture has turned into packed main
   plus delta) and by reads of the new snapshot. At LUBM 200k such a
   write costs 2-50 ms by kind, so 240 writes (12 beyond their p95)
   add about 5 s to a run. A capture's cost varies with the host from second to
   second, so the captures are many and spread thin. Probe statements
   do not count towards the loop's timed wall. *)
let probe_captures = 60
let probe_writes = 4
let probe_snapshot_reads = 5

let generate = function
  | Lookup -> Workloads.Lubm.generate ~scale:lubm_scale
  | Analytic -> Workloads.Dbpedia.generate ~scale:dbpedia_scale

let dataset = function
  | Lookup -> Printf.sprintf "lubm:%d" lubm_scale
  | Analytic -> Printf.sprintf "dbpedia:%d" dbpedia_scale

(* ------------------------------------------------------------------ *)
(* Set-up                                                              *)
(* ------------------------------------------------------------------ *)

type setup = {
  main : E.t;  (** the reads' store *)
  snap : E.t;  (** the write probe's store *)
  setup_times : float list;
  n_triples : int;
  bytes_per_triple : float;
}

let live_bytes () = (Gc.stat ()).Gc.live_words * (Sys.word_size / 8)

let timed_build triples =
  Gc.compact ();
  let t0 = now () in
  let e, _, _ = E.create_colored ~layout:(Session.layout ()) ~options:Session.options triples in
  (e, now () -. t0)

(* Each triple list lives only inside one of these frames, so it is
   garbage once the frame returns. *)
let[@inline never] build_first w =
  let triples = generate w in
  let e, dt = timed_build triples in
  (e, dt, List.length triples)

(* [k] builds; only the last store is kept, so at most one more store
   than the caller holds is ever live. *)
let[@inline never] build_more w k =
  let triples = generate w in
  let dropped = List.init (k - 1) (fun _ -> snd (timed_build triples)) in
  let e, dt = timed_build triples in
  (e, dropped @ [ dt ])

(** Build the reads' store, {!setup_builds}[ - 2] stores that are timed
    and dropped, then the probe's store, each from the in-memory triple
    list on a compacted heap; [bytes_per_triple] is the live heap the
    first store adds once its input list is dropped. *)
let setup w =
  Gc.compact ();
  let before = live_bytes () in
  let main, t1, n_triples = build_first w in
  Gc.compact ();
  let bytes_per_triple = float_of_int (live_bytes () - before) /. float_of_int n_triples in
  let snap, times = build_more w (setup_builds - 1) in
  { main; snap; setup_times = t1 :: times; n_triples; bytes_per_triple }

(** [Engine.create_colored] taken apart — coloring, engine creation,
    bulk load — each in its own span. *)
let[@inline never] traced_setup tr w =
  let triples = generate w in
  let sp name f = Trace.span tr ~stmt:(-1) name f in
  let l = Session.layout () in
  sp "setup" (fun () ->
      let direct_map, reverse_map =
        sp "coloring.color" (fun () ->
            let sampled = Db2rdf.Coloring.sample_triples ~fraction:1.0 triples in
            let dg, rg = Db2rdf.Coloring.interference_graphs sampled in
            let dcol = Db2rdf.Coloring.color ~max_colors:l.Db2rdf.Layout.dph_cols dg in
            let rcol = Db2rdf.Coloring.color ~max_colors:l.Db2rdf.Layout.rph_cols rg in
            ( Db2rdf.Coloring.to_pred_map ~m:l.Db2rdf.Layout.dph_cols dcol,
              Db2rdf.Coloring.to_pred_map ~m:l.Db2rdf.Layout.rph_cols rcol ))
      in
      let e =
        sp "engine.create" (fun () ->
            E.create ~layout:l ~options:Session.options ~direct_map ~reverse_map ())
      in
      sp "loader.load" (fun () -> E.load e triples);
      e)

let store_digest e = Digest.to_hex (Digest.string (Db2rdf.Loader.dump_store (E.loader e)))

(* ------------------------------------------------------------------ *)
(* Streams and the probe                                               *)
(* ------------------------------------------------------------------ *)

type pools = Lubm_p of Gen.lubm_pools | Dbp_p of Gen.dbpedia_pools

let pools w =
  let triples = generate w in
  match w with
  | Lookup -> Lubm_p (Gen.lubm_pools triples)
  | Analytic -> Dbp_p (Gen.dbpedia_pools triples)

let stream w ~seed pools =
  match w, pools with
  | Lookup, Lubm_p p -> Gen.lookup_stream ~seed p
  | Analytic, Dbp_p p -> Gen.analytic_stream ~seed p
  | _ -> invalid_arg "Run.stream: pools of another dataset"

let capture = { Gen.kind = Gen.Capture; template = "capture"; text = "" }

(** The write probe: each statement with the loop time it is due at. *)
let probe_schedule ~seconds ~seed pools =
  let writes =
    match pools with
    | Lubm_p p -> Gen.lubm_updates p (Gen.rng_for ~seed 11)
    | Dbp_p p -> Gen.dbpedia_updates p (Gen.rng_for ~seed 11)
  in
  let reads =
    match pools with
    | Lubm_p p -> Gen.lubm_probe_reads ~seed p
    | Dbp_p p -> Gen.dbpedia_probe_reads ~seed p
  in
  let stmts =
    List.concat
      (List.init probe_captures (fun _ ->
           let ws = Gen.take probe_writes writes in
           (capture :: ws) @ Gen.take probe_snapshot_reads reads))
  in
  let n = float_of_int (List.length stmts) in
  Array.of_list (List.mapi (fun i st -> ((float_of_int i +. 0.5) *. seconds /. n, st)) stmts)

(* ------------------------------------------------------------------ *)
(* The timed loop                                                      *)
(* ------------------------------------------------------------------ *)

(** The sessions of a run: the reads' store and the probe's. *)
type sessions = { main : Session.t; snap : Session.t }

let route ss ~probe = if probe then ss.snap else ss.main
let all ss = [ ss.main; ss.snap ]

(** One executed statement: when it was issued (seconds of timed
    loop), whether the probe issued it, and its latency. *)
type event = { at : float; probe : bool; st : Gen.stmt; dt : float }

(** The closed loop: issue the next statement as soon as the previous
    one returns, until [seconds] of timed wall have passed, running
    each probe statement once the loop reaches its due time. Returns
    the events in order and the timed wall. *)
let run_timed ss ~seconds ~next ~probe:schedule =
  Gc.compact ();
  let start = now () and paused = ref 0.0 in
  let elapsed () = now () -. start -. !paused in
  let events = ref [] and id = ref 0 and j = ref 0 in
  let exec ~probe st =
    let at = elapsed () in
    let p0 = now () in
    let dt, pause = Session.step (route ss ~probe) ~id:!id st in
    paused := !paused +. (if probe then now () -. p0 else pause);
    incr id;
    events := { at; probe; st; dt } :: !events
  in
  let run_probe () =
    exec ~probe:true (snd schedule.(!j));
    incr j
  in
  let due () =
    while !j < Array.length schedule && fst schedule.(!j) <= elapsed () do
      run_probe ()
    done
  in
  while elapsed () < seconds do
    exec ~probe:false (next ());
    due ()
  done;
  let wall = elapsed () in
  while !j < Array.length schedule do
    run_probe ()
  done;
  (List.rev !events, wall)

(* ------------------------------------------------------------------ *)
(* Counters and header                                                 *)
(* ------------------------------------------------------------------ *)

let cache_json (c : Relsql.Plan_cache.stats) =
  Json.Obj
    [ ("hits", Json.Int c.Relsql.Plan_cache.hits); ("misses", Json.Int c.Relsql.Plan_cache.misses);
      ("entries", Json.Int c.Relsql.Plan_cache.entries) ]

type table_totals = {
  delta_rows : int;
  tombstones : int;
  merges : int;
  posting_entries : int;
  store_bytes : int;
  frozen_tables : int;
}

let table_totals e =
  List.fold_left
    (fun acc (r : Relsql.Table.compression_report) ->
      let open Relsql.Table in
      { delta_rows = acc.delta_rows + r.r_delta_rows;
        tombstones = acc.tombstones + r.r_tombstones;
        merges = acc.merges + r.r_merges;
        posting_entries = acc.posting_entries + r.r_posting_entries;
        store_bytes =
          acc.store_bytes
          + (if r.r_frozen then r.r_packed_bytes + r.r_delta_bytes else r.r_boxed_bytes);
        frozen_tables = (acc.frozen_tables + if r.r_frozen then 1 else 0) })
    { delta_rows = 0; tombstones = 0; merges = 0; posting_entries = 0; store_bytes = 0;
      frozen_tables = 0 }
    (Relsql.Database.compression_reports (Db2rdf.Loader.database (E.loader e)))

(** The engine's own counters, read before and after the run, so each
    result states whether caches started cold or warm. *)
let counters e =
  let t = table_totals e in
  Json.Obj
    [ ("stmt_cache", cache_json (E.plan_cache_stats e));
      ("scan_cache", cache_json (E.scan_cache_stats e));
      ( "tables",
        Json.Obj
          [ ("delta_rows", Json.Int t.delta_rows); ("main_tombstones", Json.Int t.tombstones);
            ("merges", Json.Int t.merges); ("posting_entries", Json.Int t.posting_entries);
            ("store_bytes", Json.Int t.store_bytes); ("frozen_tables", Json.Int t.frozen_tables) ] );
      ( "load",
        match E.load_stats e with
        | None -> Json.Str "none"
        | Some l ->
          Json.Obj
            [ ("triples_in", Json.Int l.Db2rdf.Loader.triples_in);
              ("triples_new", Json.Int l.Db2rdf.Loader.triples_new);
              ("encode_s", Json.Num l.Db2rdf.Loader.encode_s);
              ("merge_s", Json.Num l.Db2rdf.Loader.merge_s);
              ("assemble_s", Json.Num l.Db2rdf.Loader.assemble_s);
              ("total_s", Json.Num l.Db2rdf.Loader.total_s) ] ) ]

let session_counters ss =
  Json.Obj
    [ ("reads", counters ss.main.Session.engine); ("probe", counters ss.snap.Session.engine) ]

let read_file path =
  match open_in_bin path with
  | ic ->
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Some s
  | exception Sys_error _ -> None

(* The commit from the checkout's .git, when there is one. *)
let commit () =
  match read_file ".git/HEAD" with
  | None -> "unknown"
  | Some head ->
    let head = String.trim head in
    if String.length head > 5 && String.sub head 0 5 = "ref: " then
      match read_file (Filename.concat ".git" (String.sub head 5 (String.length head - 5))) with
      | Some c -> String.trim c
      | None -> "unknown"
    else head

(* Digest of the library sources, which names the code under test even
   in a checkout without git metadata. *)
let source_digest () =
  let rec files dir =
    match Sys.readdir dir with
    | names ->
      Array.sort compare names;
      List.concat_map
        (fun n ->
          let p = Filename.concat dir n in
          if Sys.is_directory p then files p
          else if Filename.check_suffix n ".ml" || Filename.check_suffix n ".mli" then [ p ]
          else [])
        (Array.to_list names)
    | exception Sys_error _ -> []
  in
  let b = Buffer.create 4096 in
  List.iter
    (fun p ->
      Buffer.add_string b p;
      Option.iter (Buffer.add_string b) (read_file p))
    (files "lib");
  Digest.to_hex (Digest.string (Buffer.contents b))

(* ------------------------------------------------------------------ *)
(* Checks                                                              *)
(* ------------------------------------------------------------------ *)

let oracle_graph w =
  let g = Rdf.Graph.create () in
  List.iter (Rdf.Graph.add g) (generate w);
  g

let final_store_check report (s : Session.t) graph =
  match Check.dump_equal s.Session.engine graph with
  | Ok n -> n
  | Error msg ->
    Check.fail report (-1) ("final store differs from the oracle replay: " ^ msg);
    0

(** Replay both sessions' logs against the oracle; the probe's store,
    which took the writes, must end equal to the oracle graph. Returns
    the triples compared. *)
let checks report w ss =
  let log s = List.rev s.Session.log in
  (* The reads' store never changes, so its reads come first on the
     graph the probe's statements then replay on. *)
  let g = oracle_graph w in
  Check.replay report g (Array.of_list (log ss.main @ log ss.snap));
  final_store_check report ss.snap g

let attempted ss = List.length ss.main.Session.log + List.length ss.snap.Session.log

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

let ms = Layers.ms
let metric = Layers.metric

let latencies events pred =
  Array.of_list (List.filter_map (fun e -> if pred e.st.Gen.kind then Some e.dt else None) events)

let pct ~p xs = if Array.length xs = 0 then nan else ms (Stats.percentile ~p xs)

let sessions_of report ?traced ~main ~snap () =
  { main = Session.create ?traced report main; snap = Session.create ?traced report snap }

(* Run [f] and record its wall time under [name]. *)
let phase phases name f =
  let t0 = now () in
  let r = f () in
  phases := (name, Json.Num (now () -. t0)) :: !phases;
  r

(** What the untraced run leaves once its stores are dropped. *)
type untraced = {
  u_report : Check.report;
  u_events : event list;
  u_wall : float;  (** timed wall of the loop *)
  u_setup_times : float list;
  u_triples : int;
  u_bytes_per_triple : float;
  u_before : Json.t;  (** engine counters before the timed loop *)
  u_after : Json.t;
  u_attempted : int;
  u_dumped : int;  (** triples compared at the final store check *)
  u_digest : string;  (** the reads' store's dump, when traced *)
}

(** Set-up, the timed loop with the probe, and the checks. The stores
    stay inside this call, so they are garbage once it returns. *)
let untraced_run ~phases (a : Cli.t) =
  let w = a.workload in
  let phase name f = phase phases name f in
  let s = phase "setup" (fun () -> setup w) in
  let pools = phase "pools" (fun () -> pools w) in
  let report = Check.new_report () in
  let ss = sessions_of report ~main:s.main ~snap:s.snap () in
  (* The traced run's set-up must build this very store. *)
  let digest = if a.trace then store_digest s.main else "" in
  let before = session_counters ss in
  let probe = probe_schedule ~seconds:a.seconds ~seed:a.seed pools in
  let events, wall =
    phase "timed" (fun () ->
        run_timed ss ~seconds:a.seconds ~next:(stream w ~seed:a.seed pools) ~probe)
  in
  List.iter Session.check_snapshot_stable (all ss);
  let after = session_counters ss in
  let dumped = phase "checks" (fun () -> checks report w ss) in
  { u_report = report; u_events = events; u_wall = wall; u_setup_times = s.setup_times;
    u_triples = s.n_triples; u_bytes_per_triple = s.bytes_per_triple; u_before = before;
    u_after = after; u_attempted = attempted ss; u_dumped = dumped; u_digest = digest }

(** The traced run: replay the statements of the first [trace_seconds]
    of the loop on fresh stores, the reads' store built through the
    decomposed set-up, check them like the untraced run's, and derive
    the per-layer metrics. [digest] is the untraced reads' store's,
    which the decomposed set-up must reproduce; statement ids start at
    [first_id]. Returns the checks' report, the statements attempted,
    the triples compared and the metrics. *)
let traced_run ~phases ~file w ~digest ~first_id events =
  let phase name f = phase phases name f in
  Gc.compact ();
  let prefix = List.filter (fun e -> e.at < trace_seconds) events in
  let t = Session.new_traced () in
  let report = Check.new_report () in
  let main = phase "traced_setup" (fun () -> traced_setup t.Session.tr w) in
  if store_digest main <> digest then
    Check.fail report (-1)
      "drift: traced set-up built a different store than Engine.create_colored";
  let snap, _ = build_more w 1 in
  let sb = sessions_of report ~traced:t ~main ~snap () in
  Gc.compact ();
  let traced_s =
    phase "traced" (fun () ->
        List.fold_left
          (fun acc (i, e) ->
            acc +. fst (Session.step (route sb ~probe:e.probe) ~id:(first_id + i) e.st))
          0.0
          (List.mapi (fun i e -> (i, e)) prefix))
  in
  List.iter Session.check_snapshot_stable (all sb);
  let untraced_s = List.fold_left (fun acc e -> acc +. e.dt) 0.0 prefix in
  let loads =
    match E.load_stats main with
    | Some l ->
      [ metric "loader.encode_s" "s" l.Db2rdf.Loader.encode_s;
        metric "loader.assemble_s" "s" l.Db2rdf.Loader.assemble_s ]
    | None -> []
  in
  (* The probe's store is the one whose tables turn packed main plus
     delta under writes. *)
  let tt = table_totals sb.snap.Session.engine in
  let tables =
    [ metric "table.delta_rows" "count" (float_of_int tt.delta_rows);
      metric "table.main_tombstones" "count" (float_of_int tt.tombstones);
      metric "table.merges" "count" (float_of_int tt.merges);
      metric "table.posting_entries" "count" (float_of_int tt.posting_entries);
      metric "table.store_bytes" "bytes" (float_of_int tt.store_bytes) ]
  in
  let dumped = phase "traced_checks" (fun () -> checks report w sb) in
  Trace.write t.Session.tr (file "spans.tsv");
  (report, attempted sb, dumped, Layers.metrics t ~untraced_s ~traced_s @ loads @ tables)

let print_metric (m : Layers.metric) =
  Printf.printf "metric %-36s %14.6f %s\n" m.Layers.name m.Layers.value m.Layers.unit_

let main (a : Cli.t) =
  let w = a.workload in
  (try Sys.mkdir a.out 0o755 with Sys_error _ -> ());
  let file suffix =
    Filename.concat a.out (Printf.sprintf "%s-seed%d-%s" (workload_name w) a.seed suffix)
  in
  let wall0 = now () in
  let phases = ref [] in
  let u = untraced_run ~phases a in
  let events = u.u_events and setup_times = u.u_setup_times in
  let report = u.u_report in
  let attempted, dumped, traced_statements, layer_metrics =
    if not a.trace then (u.u_attempted, u.u_dumped, 0, [])
    else begin
      let report_b, attempted_b, dumped_b, layers =
        traced_run ~phases ~file w ~digest:u.u_digest ~first_id:(List.length events) events
      in
      Check.merge ~into:report report_b;
      (u.u_attempted + attempted_b, u.u_dumped + dumped_b, attempted_b, layers)
    end
  in
  let failed =
    List.length (List.sort_uniq compare (List.map (fun f -> f.Check.f_id) report.Check.failures))
  in
  let correct = failed = 0 && report.Check.unchecked = 0 in
  let reads = latencies events (fun k -> k = Gen.Read) in
  let updates = latencies events Gen.is_update in
  let captures = latencies events (fun k -> k = Gen.Capture) in
  let snap_reads = latencies events (fun k -> k = Gen.Snapshot_read) in
  let loop_statements = List.length (List.filter (fun e -> not e.probe) events) in
  let end_to_end =
    [ metric "setup_s" "s" (Stats.median (Array.of_list setup_times));
      metric "query_p50_ms" "ms" (pct ~p:50.0 reads);
      metric "query_p99_ms" "ms" (pct ~p:99.0 reads);
      metric "ops_per_s" "1/s" (float_of_int loop_statements /. u.u_wall);
      metric "update_p50_ms" "ms" (pct ~p:50.0 updates);
      metric "update_p95_ms" "ms" (pct ~p:95.0 updates);
      metric "snapshot_p50_ms" "ms" (pct ~p:50.0 captures);
      metric "snapshot_query_p50_ms" "ms" (pct ~p:50.0 snap_reads);
      metric "bytes_per_triple" "bytes" u.u_bytes_per_triple;
      metric "ok_rate" "ratio"
        (float_of_int (attempted - failed) /. float_of_int (max 1 attempted)) ]
  in
  let tails =
    Json.Obj
      (List.map
         (fun (name, p, xs) ->
           let n = Array.length xs in
           ( name,
             Json.Obj
               [ ("samples", Json.Int n); ("percentile", Json.Num p);
                 ("beyond", Json.Int (if n = 0 then 0 else Stats.samples_beyond ~p n));
                 ("ok", Json.Bool (Stats.tail_ok ~p n)) ] ))
         [ ("query_p99_ms", 99.0, reads); ("update_p95_ms", 95.0, updates) ])
  in
  let count kind = List.length (List.filter (fun e -> e.st.Gen.kind = kind) events) in
  let header =
    [ ("workload", Json.Str (workload_name w)); ("seed", Json.Int a.seed);
      ("seconds", Json.Num a.seconds); ("trace", Json.Bool a.trace);
      ("host_cores", Json.Int (Domain.recommended_domain_count ()));
      ("ocaml_version", Json.Str Sys.ocaml_version); ("commit", Json.Str (commit ()));
      ("source_digest", Json.Str (source_digest ())); ("dataset", Json.Str (dataset w));
      ("triples", Json.Int u.u_triples);
      ("options", Json.Str (E.options_fingerprint Session.options));
      ("layout", Json.Str "dph_cols=24 rph_cols=24"); ("clients", Json.Int 1);
      ("loop", Json.Str "closed"); ("runs", Json.Int 1); ("stores", Json.Int 2);
      ("setup_runs", Json.Int (List.length setup_times));
      ("setup_times_s", Json.Arr (List.map (fun x -> Json.Num x) setup_times));
      ( "statements",
        Json.Obj (List.map (fun k -> (Gen.kind_name k, Json.Int (count k))) Gen.all_kinds) );
      ("loop_statements", Json.Int loop_statements);
      ( "distinct_read_texts",
        Json.Int
          (List.length
             (List.sort_uniq compare
                (List.filter_map
                   (fun e -> if e.st.Gen.kind = Gen.Read then Some e.st.Gen.text else None)
                   events))) );
      ("stmt_cache_capacity", Json.Int Session.cache_capacity);
      ("traced_statements", Json.Int traced_statements);
      ("phase_wall_s", Json.Obj (List.rev !phases)) ]
  in
  let shown = if a.trace then layer_metrics else end_to_end in
  Printf.printf "header %s\n" (Json.to_string (Json.Obj header));
  Printf.printf "counters_before %s\n" (Json.to_string u.u_before);
  Printf.printf "counters_after %s\n" (Json.to_string u.u_after);
  Printf.printf "tails %s\n" (Json.to_string tails);
  Printf.printf "checks checked=%d unchecked=%d failed=%d final_store_triples=%d\n"
    report.Check.checked report.Check.unchecked failed dumped;
  List.iter
    (fun f ->
      Printf.printf "failure stmt=%d %s: %s\n" f.Check.f_id
        (match f.Check.f_stmt with
         | Some st -> Gen.kind_name st.Gen.kind ^ "/" ^ st.Gen.template
         | None -> "run")
        f.Check.f_msg)
    (List.filteri (fun i _ -> i < 20) (List.rev report.Check.failures));
  List.iter print_metric shown;
  Printf.printf "run_wall_s %.1f\n" (now () -. wall0);
  let values ms_ = Json.Obj (List.map (fun m -> (m.Layers.name, Json.Num m.Layers.value)) ms_) in
  Json.write (file (Printf.sprintf "trace%d.json" (if a.trace then 1 else 0)))
    (Json.Obj
       [ ("header", Json.Obj header); ("counters_before", u.u_before); ("counters_after", u.u_after);
         ("tails", tails); ("end_to_end", values end_to_end); ("per_layer", values layer_metrics);
         ( "failures",
           Json.Arr
             (List.rev_map
                (fun f ->
                  Json.Obj
                    [ ("stmt", Json.Int f.Check.f_id);
                      ( "text",
                        Json.Str (match f.Check.f_stmt with Some st -> st.Gen.text | None -> "") );
                      ("msg", Json.Str f.Check.f_msg) ])
                report.Check.failures) ) ]);
  print_endline
    (Json.to_string
       (Json.Obj
          [ ("correct", Json.Bool correct); ("attempted", Json.Int attempted);
            ("failed", Json.Int failed);
            ( "metrics",
              Json.Obj
                (List.map
                   (fun m ->
                     ( m.Layers.name,
                       Json.Obj [ ("value", Json.Num m.Layers.value); ("unit", Json.Str m.Layers.unit_) ]
                     ))
                   shown) ) ]));
  if correct then 0 else 1
