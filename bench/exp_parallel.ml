(** E13 — morsel-driven parallel scaling: the Micro workload's
    join-heavy stars (Q1–Q6) plus three operator-targeted queries (full
    scan, global sort, grouped aggregation) measured at executor-domain
    counts doubling from 1 up to [--domains] (default 4), on one shared
    store so only the parallelism knob varies.

    With [--json-dir] the experiment writes BENCH_parallel.json: the
    full per-domain-count measurement curve, per-query speedups against
    the 1-domain run, their geometric mean, and the host's available
    core count — scaling is physically bounded by the latter, so the
    JSON records it next to every speedup it reports. *)

let join_heavy = [ "Q1"; "Q2"; "Q3"; "Q4"; "Q5"; "Q6" ]

(** Operator-targeted queries: the star queries stress the (sequential)
    index-nested-loop side of the executor; SCAN hits the parallel fused
    scan, and SORT/AGG measure what a parallel scan buys a query whose
    sort or aggregation then runs sequentially. *)
let operator_queries =
  [ ("SCAN", "SELECT ?s ?o WHERE { ?s ?p ?o }");
    ("SORT", "SELECT ?s ?o WHERE { ?s ?p ?o } ORDER BY ?o ?s");
    ("AGG",
     "SELECT ?p (COUNT(?o) AS ?n) (MIN(?o) AS ?lo) WHERE { ?s ?p ?o } \
      GROUP BY ?p") ]

let queries () =
  List.filter (fun (n, _) -> List.mem n join_heavy) Workloads.Micro.queries
  @ operator_queries

(** Domain counts doubling from 1 up to [top] (always including 1). *)
let curve top =
  let rec up d = if d >= top then [ top ] else d :: up (2 * d) in
  List.sort_uniq compare (up 1)

let geomean = function
  | [] -> None
  | xs ->
    Some
      (exp
         (List.fold_left (fun a x -> a +. log x) 0.0 xs
          /. float_of_int (List.length xs)))

let run (cfg : Harness.config) =
  Harness.section
    (Printf.sprintf "E13. Parallel scaling (morsel-driven executor) — %d triples"
       cfg.Harness.scale);
  let cores = Domain.recommended_domain_count () in
  let top = max 1 cfg.Harness.domains in
  let counts = curve top in
  Printf.printf "host reports %d available core(s); domain curve: %s\n%!" cores
    (String.concat " " (List.map string_of_int counts));
  let triples = Workloads.Micro.generate ~scale:cfg.Harness.scale in
  (* One shared engine; only the database's parallelism knob changes
     between sweeps, so every domain count sees identical data, plans
     and caches. *)
  let (engine, _, _), load_seconds =
    Harness.timed (fun () ->
        Db2rdf.Engine.create_colored
          ~layout:(Db2rdf.Layout.make ~dph_cols:24 ~rph_cols:24) triples)
  in
  let db = Db2rdf.Loader.database (Db2rdf.Engine.loader engine) in
  let qs =
    List.map (fun (n, src) -> (n, Sparql.Parser.parse src)) (queries ())
  in
  let sweep d : (string * Harness.measurement) list =
    Relsql.Database.set_parallelism db d;
    let sys =
      { Harness.sys_name = Printf.sprintf "%d-domain" d;
        store = Db2rdf.Engine.to_store engine; load_seconds }
    in
    List.map (fun (qname, q) -> (qname, Harness.measure cfg sys qname q)) qs
  in
  let results = List.map (fun d -> (d, sweep d)) counts in
  Relsql.Database.set_parallelism db 1;
  let base =
    match results with
    | (1, ms) :: _ -> ms
    | _ -> assert false
  in
  let speedup_at d qname =
    match (List.assoc_opt qname base, List.assoc_opt d results) with
    | Some b, Some ms ->
      (match (b.Harness.m_outcome, List.assoc_opt qname ms) with
       | `Complete _, Some m when m.Harness.m_outcome <> `Timeout
                                  && m.Harness.m_seconds > 0.0 ->
         Some (b.Harness.m_seconds /. m.Harness.m_seconds)
       | _ -> None)
    | _ -> None
  in
  let rows =
    List.map
      (fun (qname, _) ->
        qname
        :: List.map
             (fun (_, ms) ->
               Harness.outcome_cell (List.assoc qname ms))
             results
        @ [ (match speedup_at top qname with
             | Some s -> Printf.sprintf "%.2fx" s
             | None -> "-") ])
      qs
  in
  Harness.subsection
    (Printf.sprintf "Micro queries by executor domains (ms; speedup at %d)" top);
  Harness.print_table
    ("Query"
     :: List.map (fun (d, _) -> Printf.sprintf "%dd" d) results
     @ [ Printf.sprintf "x@%d" top ])
    rows;
  let gm =
    geomean (List.filter_map (fun (qname, _) -> speedup_at top qname) qs)
  in
  (match gm with
   | Some g ->
     Printf.printf
       "\ngeomean speedup at %d domains: %.2fx (host has %d core(s) — \
        speedup > 1 requires real cores)\n%!"
       top g cores
   | None -> Printf.printf "\ngeomean speedup: n/a\n%!");
  Harness.write_json cfg ~file:"BENCH_parallel.json"
    (Harness.J_obj
       [ ("experiment", Harness.J_str "parallel-scaling");
         ("workload", Harness.J_str "micro");
         ("scale", Harness.J_int cfg.Harness.scale);
         ("runs", Harness.J_int cfg.Harness.runs);
         ("host_cores", Harness.J_int cores);
         ( "note",
           Harness.J_str
             (Printf.sprintf
                "domain counts share one store; speedups are bounded by \
                 the %d core(s) of this host — on a single-core host the \
                 curve measures parallel overhead, not speedup" cores) );
         ( "curve",
           Harness.J_list
             (List.map
                (fun (d, ms) ->
                  Harness.J_obj
                    [ ("domains", Harness.J_int d);
                      ( "measurements",
                        Harness.J_list
                          (List.map
                             (fun (qname, m) ->
                               Harness.J_obj
                                 [ ("query", Harness.J_str qname);
                                   ( "m",
                                     Harness.measurement_json m ) ])
                             ms) ) ])
                results) );
         ( "speedup_vs_1_domain",
           Harness.J_obj
             (List.filter_map
                (fun (qname, _) ->
                  Option.map
                    (fun s -> (qname, Harness.J_float s))
                    (speedup_at top qname))
                qs) );
         ( "geomean_speedup",
           match gm with
           | Some g -> Harness.J_float g
           | None -> Harness.J_str "n/a" ) ])
