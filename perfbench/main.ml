(** The repository benchmark: one closed-loop client drives a seeded
    statement stream through the engine's default options and reports
    every end-to-end metric, or (with [--trace 1]) every per-layer one.

    Usage:
      main.exe --workload lubm-lookup|dbpedia-analytic
               --seed N --seconds S --trace 0|1 [--out DIR]

    The last line of standard output is one JSON object with the keys
    [correct], [attempted], [failed] and [metrics]. A full report (and,
    for traced runs, every recorded span) is written under [--out].
    The process exits 1 when any correctness check fails. *)

open Perfbench

let () =
  let a = Cli.parse Sys.argv in
  let code = Run.main a in
  exit code
