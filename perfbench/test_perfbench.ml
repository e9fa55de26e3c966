(* Tests of the benchmark's own code: order statistics, seeded stream
   generation, and the constants the streams draw. *)

open Perfbench

let lubm = lazy (Workloads.Lubm.generate ~scale:20_000)
let dbpedia = lazy (Workloads.Dbpedia.generate ~scale:20_000)
let lubm_pools = lazy (Gen.lubm_pools (Lazy.force lubm))
let dbpedia_pools = lazy (Gen.dbpedia_pools (Lazy.force dbpedia))

(* ------------------------------------------------------------------ *)
(* Percentiles                                                         *)
(* ------------------------------------------------------------------ *)

let test_nearest_rank () =
  let xs = Array.init 100 (fun i -> float_of_int (100 - i)) in
  Alcotest.(check (float 0.0)) "p50 of 1..100" 50.0 (Stats.percentile ~p:50.0 xs);
  Alcotest.(check (float 0.0)) "p99 of 1..100" 99.0 (Stats.percentile ~p:99.0 xs);
  Alcotest.(check (float 0.0)) "p100 is the max" 100.0 (Stats.percentile ~p:100.0 xs);
  Alcotest.(check (float 0.0)) "one sample" 7.0 (Stats.percentile ~p:99.0 [| 7.0 |]);
  Alcotest.(check (float 0.0)) "median of 1..3" 2.0 (Stats.median [| 3.0; 1.0; 2.0 |]);
  Alcotest.(check (float 0.0)) "median of 1..4 (lower)" 2.0 (Stats.median [| 4.0; 1.0; 3.0; 2.0 |]);
  Alcotest.check_raises "no samples" (Invalid_argument "Stats.rank: no samples") (fun () ->
      ignore (Stats.percentile ~p:50.0 [||]))

let test_tail_samples () =
  Alcotest.(check int) "rank of p99 at 1000" 990 (Stats.rank ~p:99.0 1000);
  Alcotest.(check int) "beyond p99 at 1000" 10 (Stats.samples_beyond ~p:99.0 1000);
  Alcotest.(check bool) "1000 samples carry a p99" true (Stats.tail_ok ~p:99.0 1000);
  Alcotest.(check int) "beyond p99 at 999" 9 (Stats.samples_beyond ~p:99.0 999);
  Alcotest.(check bool) "999 samples do not" false (Stats.tail_ok ~p:99.0 999);
  Alcotest.(check bool) "200 samples carry a p95" true (Stats.tail_ok ~p:95.0 200);
  Alcotest.(check bool) "199 samples do not" false (Stats.tail_ok ~p:95.0 199);
  Alcotest.(check bool) "no samples" false (Stats.tail_ok ~p:50.0 0);
  Alcotest.(check int) "beyond p50 at 7" 3 (Stats.samples_beyond ~p:50.0 7)

let test_sample_growth () =
  let s = Stats.Sample.create () in
  for i = 1 to 1000 do
    Stats.Sample.add s (float_of_int i)
  done;
  Alcotest.(check int) "length" 1000 (Stats.Sample.length s);
  Alcotest.(check (float 0.0)) "sum" 500500.0 (Stats.sum (Stats.Sample.to_array s))

let test_self_time () =
  let tr = Trace.create () in
  Trace.span tr ~stmt:0 "root" (fun () ->
      Trace.span tr ~stmt:0 "child" (fun () -> Unix.sleepf 0.002));
  let spans = Trace.spans tr and self = Trace.self_times tr in
  Alcotest.(check int) "two spans" 2 (Array.length spans);
  Alcotest.(check int) "child's parent" 0 spans.(1).Trace.parent;
  Alcotest.(check (float 1e-9)) "root self = root - child"
    (Trace.duration spans.(0) -. Trace.duration spans.(1))
    self.(0)

(* ------------------------------------------------------------------ *)
(* Seeded streams                                                      *)
(* ------------------------------------------------------------------ *)

let texts next n = List.map (fun st -> (st.Gen.kind, st.Gen.text)) (Gen.take n next)

let streams =
  [ ("lookup", fun seed -> Gen.lookup_stream ~seed (Lazy.force lubm_pools));
    ("analytic", fun seed -> Gen.analytic_stream ~seed (Lazy.force dbpedia_pools));
    ("lubm updates", fun seed -> Gen.lubm_updates (Lazy.force lubm_pools) (Gen.rng_for ~seed 8));
    ("dbpedia updates", fun seed -> Gen.dbpedia_updates (Lazy.force dbpedia_pools) (Gen.rng_for ~seed 8));
    ("lubm snapshot reads", fun seed -> Gen.lubm_probe_reads ~seed (Lazy.force lubm_pools)) ]

let test_deterministic () =
  List.iter
    (fun (name, make) ->
      Alcotest.(check bool) (name ^ ": same seed, same stream") true
        (texts (make 11) 300 = texts (make 11) 300);
      Alcotest.(check bool) (name ^ ": other seed, other stream") false
        (texts (make 11) 300 = texts (make 12) 300))
    streams

let test_distinct_counts () =
  let distinct next n =
    List.length (List.sort_uniq compare (List.map (fun st -> st.Gen.text) (Gen.take n next)))
  in
  Alcotest.(check bool) "lookup texts far exceed the 64-entry statement cache" true
    (distinct (Gen.lookup_stream ~seed:3 (Lazy.force lubm_pools)) 2000 > 640);
  let consts = Gen.dbpedia_consts (Gen.rng_for ~seed:3 2) (Lazy.force dbpedia_pools) in
  let all = List.sort_uniq compare (List.map snd (Gen.dbpedia_texts consts)) in
  Alcotest.(check bool) "analytic texts fit the statement cache" true (List.length all <= 64);
  let drawn = Gen.take 3000 (Gen.analytic_stream ~seed:3 (Lazy.force dbpedia_pools)) in
  Alcotest.(check bool) "the analytic stream draws only those texts" true
    (List.for_all (fun st -> List.mem st.Gen.text all) drawn)

let test_every_text_parses () =
  List.iter
    (fun (_, make) ->
      List.iter
        (fun st ->
          match st.Gen.kind with
          | Gen.Read | Gen.Snapshot_read -> ignore (Sparql.Parser.parse st.Gen.text)
          | Gen.Insert_data | Gen.Delete_data | Gen.Delete_where ->
            ignore (Sparql.Parser.parse_update st.Gen.text)
          | Gen.Capture -> ())
        (Gen.take 500 (make 5)))
    streams

(* ------------------------------------------------------------------ *)
(* Drawn constants exist                                               *)
(* ------------------------------------------------------------------ *)

let terms_of triples =
  let tbl = Hashtbl.create 65536 in
  List.iter
    (fun (t : Rdf.Triple.t) ->
      Hashtbl.replace tbl t.Rdf.Triple.s ();
      Hashtbl.replace tbl t.Rdf.Triple.p ();
      Hashtbl.replace tbl t.Rdf.Triple.o ())
    triples;
  tbl

(* IRIs in subject or object position: the drawn constants and the
   class names (predicates are fixed template vocabulary, and LQ13 asks
   for a degree predicate the generator never emits). *)
let rec node_iris = function
  | Sparql.Ast.Bgp tps ->
    List.concat_map
      (fun tp ->
        List.filter_map
          (function Sparql.Ast.Term (Rdf.Term.Iri _ as t) -> Some t | _ -> None)
          [ tp.Sparql.Ast.tp_s; tp.Sparql.Ast.tp_o ])
      tps
  | Sparql.Ast.Group ps | Sparql.Ast.Union ps -> List.concat_map node_iris ps
  | Sparql.Ast.Optional p -> node_iris p
  | Sparql.Ast.Filter _ -> []

let check_reads_exist name terms stmts =
  List.iter
    (fun st ->
      if st.Gen.kind = Gen.Read || st.Gen.kind = Gen.Snapshot_read then
        List.iter
          (fun iri ->
            if not (Hashtbl.mem terms iri) then
              Alcotest.failf "%s: %s draws %s, absent from the graph" name st.Gen.template
                (Rdf.Term.to_string iri))
          (node_iris (Sparql.Parser.parse st.Gen.text).Sparql.Ast.where))
    stmts

let test_read_constants_exist () =
  let lterms = terms_of (Lazy.force lubm) and dterms = terms_of (Lazy.force dbpedia) in
  check_reads_exist "lookup" lterms (Gen.take 2000 (Gen.lookup_stream ~seed:9 (Lazy.force lubm_pools)));
  check_reads_exist "snapshot reads" lterms
    (Gen.take 2000 (Gen.lubm_probe_reads ~seed:9 (Lazy.force lubm_pools)));
  check_reads_exist "analytic" dterms
    (Gen.take 2000 (Gen.analytic_stream ~seed:9 (Lazy.force dbpedia_pools)))

(* Inserts reference existing entities (only their own subject is new);
   single-triple deletes target a triple that exists at that point. *)
let check_updates name triples next =
  let terms = terms_of triples in
  let present = Hashtbl.create 65536 in
  List.iter (fun t -> Hashtbl.replace present t ()) triples;
  List.iter
    (fun st ->
      if Gen.is_update st.Gen.kind then
        match Sparql.Parser.parse_update st.Gen.text with
        | Sparql.Ast.Insert_data ts ->
          List.iter
            (fun (t : Rdf.Triple.t) ->
              if Rdf.Term.is_iri t.Rdf.Triple.o && not (Hashtbl.mem terms t.Rdf.Triple.o) then
                Alcotest.failf "%s: insert links to unknown %s" name
                  (Rdf.Term.to_string t.Rdf.Triple.o);
              Hashtbl.replace present t ())
            ts
        | Sparql.Ast.Delete_data ts ->
          List.iter
            (fun t ->
              if not (Hashtbl.mem present t) then
                Alcotest.failf "%s: deletes absent triple %s" name (Rdf.Triple.to_string t);
              Hashtbl.remove present t)
            ts
        | Sparql.Ast.Delete_where _ -> ())
    (Gen.take 1500 next)

let test_update_constants_exist () =
  check_updates "lubm" (Lazy.force lubm)
    (Gen.lubm_updates (Lazy.force lubm_pools) (Gen.rng_for ~seed:4 8));
  check_updates "dbpedia" (Lazy.force dbpedia)
    (Gen.dbpedia_updates (Lazy.force dbpedia_pools) (Gen.rng_for ~seed:4 8))

let () =
  Alcotest.run "perfbench"
    [ ( "stats",
        [ Alcotest.test_case "nearest-rank percentiles" `Quick test_nearest_rank;
          Alcotest.test_case "tail sample counts" `Quick test_tail_samples;
          Alcotest.test_case "sample growth" `Quick test_sample_growth;
          Alcotest.test_case "span self time" `Quick test_self_time ] );
      ( "streams",
        [ Alcotest.test_case "deterministic per seed" `Quick test_deterministic;
          Alcotest.test_case "distinct texts vs statement cache" `Quick test_distinct_counts;
          Alcotest.test_case "every text parses" `Quick test_every_text_parses ] );
      ( "constants",
        [ Alcotest.test_case "read constants exist" `Quick test_read_constants_exist;
          Alcotest.test_case "update constants exist" `Quick test_update_constants_exist ] ) ]
