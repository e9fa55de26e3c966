(** Benchmark entry point: regenerates every table and figure of the
    paper's evaluation (see DESIGN.md's experiment index). Run with
    [dune exec bench/main.exe], optionally restricting via
    [-e <experiment>] and scaling via [--scale N].

    Experiments: micro (E1/Fig 3), hashing (E2/Table 3), coloring
    (E3/Table 4), spills (E4), nulls (E5), flow (E6/Fig 14), summary
    (E7/Fig 15, includes E8/Fig 16, E9/Fig 17, E10/Fig 18), ablation
    (E11), load (E12 — the future-work insertion/update study), parallel
    (E13 — morsel-driven executor scaling over OCaml domains), compress
    (E15 — boxed rows vs bit-packed columnar storage on
    identical data), wcoj (E16 — multiway leapfrog join vs the binary
    pipeline on the snowflake workload), extvp (E17 — ExtVP semi-join
    reductions vs the plain merged pipeline on snowflake plus the
    selective LUBM joins), update (E18 — SPARQL UPDATE throughput and
    snapshot reads over a mixed read/write stream, boxed vs
    compressed), bechamel.

    [--compare old.json new.json] diffs two benchmark JSON files
    (per-experiment measurement deltas plus geomeans) and exits
    non-zero if any shared experiment regressed by more than 10%. *)

let () =
  let cfg = Harness.parse_args () in
  match cfg.Harness.compare with
  | Some (old_file, new_file) ->
    if not (Harness.compare_results old_file new_file) then exit 1
  | None ->
  Printf.printf
    "DB2RDF reproduction benchmarks — scale=%d runs=%d timeout=%.0fs\n%!"
    cfg.Harness.scale cfg.Harness.runs cfg.Harness.timeout;
  if Harness.enabled cfg "micro" then Exp_micro.run cfg;
  if Harness.enabled cfg "hashing" then Exp_coloring.run_hashing cfg;
  if Harness.enabled cfg "coloring" then Exp_coloring.run_coloring cfg;
  if Harness.enabled cfg "spills" then Exp_coloring.run_spills cfg;
  if Harness.enabled cfg "nulls" then Exp_nulls.run cfg;
  if Harness.enabled cfg "flow" then Exp_flow.run cfg;
  if Harness.enabled cfg "summary" then begin
    let per_query = Exp_summary.run_summary cfg in
    Exp_summary.run_figures cfg per_query
  end;
  if Harness.enabled cfg "ablation" then Exp_ablation.run cfg;
  if Harness.enabled cfg "load" then Exp_load.run cfg;
  if Harness.enabled cfg "parallel" then Exp_parallel.run cfg;
  if Harness.enabled cfg "compress" then Exp_compress.run cfg;
  if Harness.enabled cfg "wcoj" then Exp_wcoj.run cfg;
  if Harness.enabled cfg "extvp" then Exp_extvp.run cfg;
  if Harness.enabled cfg "update" then Exp_update.run cfg;
  if Harness.enabled cfg "bechamel" then Exp_bechamel.run cfg;
  Printf.printf "\nAll requested experiments complete.\n"
