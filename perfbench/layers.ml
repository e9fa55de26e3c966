(** Per-layer metrics of a traced run, from its spans and the executor
    trees of its reads. *)

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }
let ms s = 1000.0 *. s

let is_wrapper (n : Relsql.Opstats.t) =
  let l = n.Relsql.Opstats.label in
  l = "statement" || l = "body" || (String.length l > 4 && String.sub l 0 4 = "CTE ")

(** [untraced_s] and [traced_s] are the summed latencies of the same
    statements run untraced and traced. *)
let metrics (t : Session.traced) ~untraced_s ~traced_s =
  let spans = Trace.spans t.Session.tr and self = Trace.self_times t.Session.tr in
  let by_name = Hashtbl.create 32 in
  let add name x =
    match Hashtbl.find_opt by_name name with
    | Some s -> Stats.Sample.add s x
    | None ->
      let s = Stats.Sample.create () in
      Stats.Sample.add s x;
      Hashtbl.replace by_name name s
  in
  (* Planning runs twice on the traced path: once in its own span and
     again inside Executor.run_analyzed; the executor's self time is
     reported net of one planning pass. *)
  let plan_time = Hashtbl.create 1024 in
  Array.iter
    (fun sp ->
      if sp.Trace.name = "planner.plan" then
        Hashtbl.replace plan_time sp.Trace.stmt (Trace.duration sp))
    spans;
  let read_total = ref 0.0 in
  Array.iteri
    (fun i sp ->
      if not sp.Trace.off_path then begin
        add sp.Trace.name
          (if sp.Trace.name = "executor.run" then
             Float.max 0.0
               (self.(i) -. Option.value ~default:0.0 (Hashtbl.find_opt plan_time sp.Trace.stmt))
           else self.(i));
        if sp.Trace.name = "read" then read_total := !read_total +. Trace.duration sp
      end
      else if spans.(sp.Trace.parent).Trace.name = "read" then
        read_total := !read_total -. Trace.duration sp)
    spans;
  let arr name =
    match Hashtbl.find_opt by_name name with Some s -> Stats.Sample.to_array s | None -> [||]
  in
  let p50 name = if arr name = [||] then 0.0 else Stats.median (arr name) in
  let share names =
    if !read_total <= 0.0 then 0.0
    else List.fold_left (fun acc n -> acc +. Stats.sum (arr n)) 0.0 names /. !read_total
  in
  let rows_in = ref 0 and rows_out = ref 0 and probes = ref 0 and delta = ref 0 in
  let chits = ref 0 and cmiss = ref 0 and qerrs = Stats.Sample.create () in
  Queue.iter
    (fun root ->
      rows_out := !rows_out + root.Relsql.Opstats.rows_out;
      Relsql.Opstats.iter
        (fun n ->
          if not (is_wrapper n) then begin
            rows_in := !rows_in + n.Relsql.Opstats.rows_in;
            probes := !probes + n.Relsql.Opstats.index_probes;
            delta := !delta + n.Relsql.Opstats.delta_rows;
            chits := !chits + n.Relsql.Opstats.cache_hits;
            cmiss := !cmiss + n.Relsql.Opstats.cache_misses;
            Option.iter (Stats.Sample.add qerrs) (Relsql.Opstats.q_error n)
          end)
        root)
    t.Session.ops;
  let n_reads = Queue.length t.Session.ops in
  let per_read x = if n_reads = 0 then 0.0 else float_of_int x /. float_of_int n_reads in
  let ratio a b = if a + b = 0 then 0.0 else float_of_int a /. float_of_int (a + b) in
  let qerrs = Stats.Sample.to_array qerrs in
  let layer_ms name = metric (name ^ "_ms") "ms" (ms (p50 name)) in
  List.map layer_ms
    [ "parser.parse"; "parser.parse_update"; "pattern_tree.build"; "dataflow.compute";
      "exec_tree.build"; "merge.of_exec"; "sqlgen.generate"; "planner.plan"; "executor.run";
      "results.decode" ]
  @ [ metric "parser.parse_share" "ratio" (share [ "parser.parse" ]);
      metric "translate.share" "ratio" (share (List.tl Session.translation_layers));
      metric "planner.plan_share" "ratio" (share [ "planner.plan" ]);
      metric "executor.run_share" "ratio" (share [ "executor.run" ]);
      metric "results.decode_share" "ratio" (share [ "results.decode" ]);
      metric "engine.stmt_cache_hit_ratio" "ratio" (ratio t.Session.hits t.Session.misses);
      metric "engine.stmt_cache_stale" "count" (float_of_int t.Session.stale);
      metric "executor.rows_examined_per_result" "ratio"
        (float_of_int !rows_in /. float_of_int (max 1 !rows_out));
      metric "executor.index_probes" "count" (per_read !probes);
      metric "executor.qerror_p50" "ratio" (if qerrs = [||] then 1.0 else Stats.median qerrs);
      metric "executor.qerror_max" "ratio" (Array.fold_left Float.max 1.0 qerrs);
      metric "executor.delta_rows_visited" "count" (per_read !delta);
      metric "scan_cache.hit_ratio" "ratio" (ratio !chits !cmiss);
      metric "results.rows_decoded" "count" (per_read !rows_out) ]
  @ List.map layer_ms
      [ "engine.insert_data"; "engine.delete_data"; "engine.delete_where";
        "engine.snapshot_capture"; "engine.snapshot_query" ]
  @ [ metric "coloring.color_s" "s" (p50 "coloring.color");
      metric "loader.load_s" "s" (p50 "loader.load");
      metric "trace.overhead_ms" "ms" (ms (traced_s -. untraced_s));
      metric "trace.overhead_share" "ratio"
        (if untraced_s > 0.0 then (traced_s -. untraced_s) /. untraced_s else 0.0);
      metric "trace.drift_checks" "count" (float_of_int t.Session.drift_checks) ]
