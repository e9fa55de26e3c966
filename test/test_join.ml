(** The hash-join build and the shared scan cache: [Table.version]
    units, scan-cache semantics, build metrics, and bit-identical join
    results between sequential and parallel probing on NULL-heavy and
    skewed keys. *)

open Relsql

(** Lower the parallel threshold so even tiny inputs take the morsel
    paths, run [f], and restore. *)
let with_tiny_morsels f =
  let saved = !Executor.par_min_rows in
  Executor.par_min_rows := 2;
  Fun.protect ~finally:(fun () -> Executor.par_min_rows := saved) f

let batch_strings b =
  List.map
    (fun row ->
      String.concat "\t" (List.map Value.to_string (Array.to_list row)))
    (Batch.to_rows b)

(* ------------------------------------------------------------------ *)
(* Table.version                                                       *)
(* ------------------------------------------------------------------ *)

let test_table_version_bumps () =
  let t = Table.create "v" (Schema.make [ "a"; "b" ]) in
  let v0 = Table.version t in
  let rid = Table.insert t [| Value.Int 1; Value.Str "x" |] in
  let v1 = Table.version t in
  Alcotest.(check bool) "insert bumps version" true (v1 > v0);
  ignore (Table.set_cell t rid 1 (Value.Str "y"));
  let v2 = Table.version t in
  Alcotest.(check bool) "set_cell bumps version" true (v2 > v1);
  Table.delete_row t rid;
  let v3 = Table.version t in
  Alcotest.(check bool) "delete_row bumps version" true (v3 > v2)

(* ------------------------------------------------------------------ *)
(* Scan cache                                                          *)
(* ------------------------------------------------------------------ *)

let some_filter =
  (* Any expression works: the key only fingerprints its structure. *)
  Some
    (Sql_ast.Binop
       (Sql_ast.Eq, Sql_ast.Col (Some "t", "a"), Sql_ast.Const (Value.Int 1)))

let test_scan_cache_key_versioning () =
  let key ?(version = 1) ?(enc = 0) ?(delta = 0) ?(filter = some_filter)
      ?(cols = None) () =
    Scan_cache.key ~table:"t" ~version ~enc ~delta ~filter ~cols
  in
  let k1 = key () in
  Alcotest.(check bool) "version is part of the key" true
    (k1 <> key ~version:2 ());
  Alcotest.(check bool) "encoding epoch is part of the key" true
    (k1 <> key ~enc:1 ());
  Alcotest.(check bool) "delta epoch is part of the key" true
    (k1 <> key ~delta:1 ());
  Alcotest.(check bool) "filter is part of the key" true
    (k1 <> key ~filter:None ());
  Alcotest.(check bool) "columns are part of the key" true
    (k1 <> key ~cols:(Some [ "a" ]) ());
  Alcotest.(check string) "key is deterministic" k1 (key ())

let test_scan_cache_copies () =
  let c = Scan_cache.create () in
  let layout = [| (Some "t", "a") |] in
  let b = Batch.create ~capacity:4 layout in
  Batch.push_row b [| Value.Int 7 |];
  Scan_cache.add c "k" b;
  (* Mutating the original after caching must not reach the cache. *)
  Batch.push_row b [| Value.Int 8 |];
  (match Scan_cache.find c "k" with
   | None -> Alcotest.fail "expected a hit"
   | Some got ->
     Alcotest.(check int) "stored a frozen copy" 1 (Batch.length got);
     (* And mutating a served copy must not poison later hits. *)
     Batch.push_row got [| Value.Int 9 |]);
  (match Scan_cache.find c "k" with
   | None -> Alcotest.fail "expected a second hit"
   | Some got -> Alcotest.(check int) "served copies are private" 1
       (Batch.length got));
  Alcotest.(check bool) "miss on unknown key" true
    (Scan_cache.find c "zz" = None);
  let s = Scan_cache.stats c in
  Alcotest.(check int) "hits" 2 s.Plan_cache.hits;
  Alcotest.(check int) "misses" 1 s.Plan_cache.misses;
  Alcotest.(check int) "entries" 1 s.Plan_cache.entries

let test_scan_cache_size_bound () =
  let c = Scan_cache.create () in
  let layout = [| (Some "t", "a") |] in
  let n = Scan_cache.max_cells + 1 in
  (* Over the boxed budget but highly compressible: kept bit-packed and
     decompressed on hit. *)
  let big = Batch.create ~capacity:n layout in
  let row = [| Value.Int 0 |] in
  for _ = 1 to n do
    Batch.push_row big row
  done;
  Scan_cache.add c "big" big;
  (match Scan_cache.find c "big" with
   | None -> Alcotest.fail "compressible oversized result should be cached"
   | Some got ->
     Alcotest.(check int) "round-trips every row" n (Batch.length got);
     Alcotest.(check bool) "round-trips the values" true
       (Value.equal (Batch.get got 0 0) (Value.Int 0)
        && Value.equal (Batch.get got (n - 1) 0) (Value.Int 0)));
  (* All-distinct reals defeat the dictionary: the packed image itself
     busts the budget, so the entry is dropped. *)
  let wide = Batch.create ~capacity:n layout in
  for i = 1 to n do
    Batch.push_row wide [| Value.Real (float_of_int i) |]
  done;
  Scan_cache.add c "wide" wide;
  Alcotest.(check bool) "incompressible oversized result not cached" true
    (Scan_cache.find c "wide" = None)

(** The executor consults the cache for fused filter/projection scans:
    same statement twice → second run hits; a write in between →
    version changes, miss again. *)
let test_scan_cache_in_executor () =
  let db = Database.create "scantest" in
  let t = Database.create_table db "t" (Schema.make [ "k"; "v" ]) in
  for i = 0 to 99 do
    ignore (Table.insert t [| Value.Int (i mod 10); Value.Int i |])
  done;
  let stmt = Sql_parser.parse "SELECT a.v FROM t AS a WHERE a.k = 3" in
  let sum_stats f stats =
    Opstats.fold (fun acc n -> acc + f n) 0 stats
  in
  let r1, s1 = Executor.run_analyzed db stmt in
  Alcotest.(check int) "first run misses" 1
    (sum_stats (fun n -> n.Opstats.cache_misses) s1);
  let r2, s2 = Executor.run_analyzed db stmt in
  Alcotest.(check int) "second run hits" 1
    (sum_stats (fun n -> n.Opstats.cache_hits) s2);
  Alcotest.(check (list string)) "hit serves identical rows"
    (batch_strings r1) (batch_strings r2);
  Alcotest.(check bool) "ANALYZE surfaces the hit" true
    (Helpers.contains (Opstats.to_string s2) "scan_cache=hit");
  (* A write bumps Table.version: the old entry's key is dead. *)
  ignore (Table.insert t [| Value.Int 3; Value.Int 1_000 |]);
  let r3, s3 = Executor.run_analyzed db stmt in
  Alcotest.(check int) "post-write run misses again" 1
    (sum_stats (fun n -> n.Opstats.cache_misses) s3);
  Alcotest.(check int) "post-write run sees the new row"
    (List.length (batch_strings r1) + 1)
    (List.length (batch_strings r3))

(** Delta-main regression: a cached packed scan must be invalidated by
    a delta-side insert (the packed image is untouched — the write only
    moves the row version and delta epoch), and invalidated again by
    the merge that folds the delta back in (same rows, fresh packed
    main), with identical rows served across both boundaries. *)
let test_scan_cache_delta_invalidation () =
  let db = Database.create "deltascan" in
  let t = Database.create_table db "t" (Schema.make [ "k"; "v" ]) in
  for i = 0 to 99 do
    ignore (Table.insert t [| Value.Int (i mod 10); Value.Int i |])
  done;
  Table.freeze t;
  let stmt = Sql_parser.parse "SELECT a.v FROM t AS a WHERE a.k = 3" in
  let sum_stats f stats = Opstats.fold (fun acc n -> acc + f n) 0 stats in
  let r1, s1 = Executor.run_analyzed db stmt in
  Alcotest.(check int) "first packed run misses" 1
    (sum_stats (fun n -> n.Opstats.cache_misses) s1);
  let _, s2 = Executor.run_analyzed db stmt in
  Alcotest.(check int) "second packed run hits" 1
    (sum_stats (fun n -> n.Opstats.cache_hits) s2);
  ignore (Table.insert t [| Value.Int 3; Value.Int 1_000 |]);
  Alcotest.(check bool) "insert stayed delta-side" true
    (Table.frozen t && Table.delta_rows t = 1);
  let r3, s3 = Executor.run_analyzed db stmt in
  Alcotest.(check int) "delta insert invalidates the cached scan" 1
    (sum_stats (fun n -> n.Opstats.cache_misses) s3);
  Alcotest.(check (list string)) "delta row served after the packed rows"
    (batch_strings r1 @ [ "1000" ])
    (batch_strings r3);
  let _, s4 = Executor.run_analyzed db stmt in
  Alcotest.(check int) "delta-resident scan re-cached" 1
    (sum_stats (fun n -> n.Opstats.cache_hits) s4);
  Table.merge t;
  let r5, s5 = Executor.run_analyzed db stmt in
  Alcotest.(check int) "merge invalidates the cached scan" 1
    (sum_stats (fun n -> n.Opstats.cache_misses) s5);
  Alcotest.(check (list string)) "merge preserves the rows"
    (batch_strings r3) (batch_strings r5);
  let _, s6 = Executor.run_analyzed db stmt in
  Alcotest.(check int) "post-merge scan re-cached" 1
    (sum_stats (fun n -> n.Opstats.cache_hits) s6)

(* ------------------------------------------------------------------ *)
(* Hash-join build: metrics and edge cases                             *)
(* ------------------------------------------------------------------ *)

(** Two index-free tables joined on one key — the planner has no choice
    but a single-key hash join. *)
let join_db ~left ~right =
  let db = Database.create "joindb" in
  let lt = Database.create_table db "lt" (Schema.make [ "k"; "v" ]) in
  let rt = Database.create_table db "rt" (Schema.make [ "k"; "w" ]) in
  List.iter (fun (k, v) -> ignore (Table.insert lt [| k; Value.Int v |])) left;
  List.iter (fun (k, w) -> ignore (Table.insert rt [| k; Value.Int w |])) right;
  db

let join_sql =
  "SELECT a.v, b.w FROM lt AS a JOIN rt AS b ON b.k = a.k"

let left_join_sql =
  "SELECT a.v, b.w FROM lt AS a LEFT JOIN rt AS b ON b.k = a.k"

let test_hash_build_metrics () =
  with_tiny_morsels (fun () ->
      let rows n = List.init n (fun i -> (Value.Int (i mod 7), i)) in
      let db = join_db ~left:(rows 200) ~right:(rows 100) in
      let stmt = Sql_parser.parse join_sql in
      let seq = Executor.run ~domains:1 db stmt in
      let par, stats = Executor.run_analyzed ~domains:4 db stmt in
      Alcotest.(check (list string)) "parallel probe ≡ sequential"
        (batch_strings seq) (batch_strings par);
      match
        List.find_opt
          (fun n -> n.Opstats.build_rows > 0)
          (Opstats.fold (fun acc n -> n :: acc) [] stats)
      with
      | None -> Alcotest.fail "no operator reported a hash-join build"
      | Some n ->
        Alcotest.(check int) "build rows counted (NULL-free input)" 100
          n.Opstats.build_rows;
        Alcotest.(check bool) "rendering shows build=" true
          (Helpers.contains (Opstats.to_string n) "build=100"))

let test_hash_build_all_null_and_skew () =
  with_tiny_morsels (fun () ->
      let checks =
        [ (* All-NULL keys on both sides: inner join empty, left join
             pads every left row. *)
          ( "all-null",
            List.init 50 (fun i -> (Value.Null, i)),
            List.init 50 (fun i -> (Value.Null, i)) );
          (* Every build row under one key: one hot bucket holds the
             whole build side. *)
          ( "single-key skew",
            List.init 40 (fun i -> (Value.Int 1, i)),
            List.init 60 (fun i -> (Value.Int 1, i)) );
          (* NULLs mixed into both sides. *)
          ( "null-mixed",
            List.init 60 (fun i ->
                ((if i mod 3 = 0 then Value.Null else Value.Int (i mod 5)), i)),
            List.init 60 (fun i ->
                ((if i mod 4 = 0 then Value.Null else Value.Int (i mod 5)), i))
          ) ]
      in
      List.iter
        (fun (name, left, right) ->
          let db = join_db ~left ~right in
          List.iter
            (fun sql ->
              let stmt = Sql_parser.parse sql in
              let seq = Executor.run ~domains:1 db stmt in
              let par = Executor.run ~domains:4 db stmt in
              Alcotest.(check (list string))
                (Printf.sprintf "%s (domains=4)" name)
                (batch_strings seq) (batch_strings par))
            [ join_sql; left_join_sql ])
        checks)

(* ------------------------------------------------------------------ *)
(* Property: random relations, parallel ≡ sequential                   *)
(* ------------------------------------------------------------------ *)

let gen_relation : (Value.t * int) list QCheck.Gen.t =
  let open QCheck.Gen in
  (* Keys from a small domain with NULLs and heavy skew mixed in, so
     build buckets collide, stay empty, or take all the rows. *)
  let key =
    frequency
      [ (2, return Value.Null);
        (5, return (Value.Int 0));
        (3, map (fun i -> Value.Int i) (int_range 0 4));
        (1, map (fun i -> Value.Int i) (int_range 0 1000));
        (1, map (fun s -> Value.Str s) (string_size ~gen:(char_range 'a' 'c')
                                          (int_range 0 3))) ]
  in
  list_size (int_range 0 60) (pair key (int_range 0 1_000_000))

let print_relation rel =
  String.concat "; "
    (List.map
       (fun (k, v) -> Printf.sprintf "(%s,%d)" (Value.to_string k) v)
       rel)

let parallel_join_matches_sequential =
  QCheck.Test.make
    ~name:"parallel hash join ≡ sequential on random relations"
    ~count:120
    (QCheck.make
       QCheck.Gen.(pair gen_relation gen_relation)
       ~print:(fun (l, r) ->
         Printf.sprintf "left=[%s] right=[%s]" (print_relation l)
           (print_relation r)))
    (fun (left, right) ->
      with_tiny_morsels (fun () ->
          let db = join_db ~left ~right in
          List.for_all
            (fun sql ->
              let stmt = Sql_parser.parse sql in
              let expect = batch_strings (Executor.run ~domains:1 db stmt) in
              List.for_all
                (fun d ->
                  expect = batch_strings (Executor.run ~domains:d db stmt))
                [ 2; 4 ])
            [ join_sql; left_join_sql ]))

let suite =
  [ Alcotest.test_case "table: version bumps on every write" `Quick
      test_table_version_bumps;
    Alcotest.test_case "scan cache: key versioning" `Quick
      test_scan_cache_key_versioning;
    Alcotest.test_case "scan cache: private copies + counters" `Quick
      test_scan_cache_copies;
    Alcotest.test_case "scan cache: size bound" `Quick
      test_scan_cache_size_bound;
    Alcotest.test_case "scan cache: executor hit/miss/invalidate" `Quick
      test_scan_cache_in_executor;
    Alcotest.test_case "scan cache: delta insert + merge invalidate" `Quick
      test_scan_cache_delta_invalidation;
    Alcotest.test_case "hash build: metrics in ANALYZE" `Quick
      test_hash_build_metrics;
    Alcotest.test_case "hash build: all-NULL and skew keys" `Quick
      test_hash_build_all_null_and_skew;
    QCheck_alcotest.to_alcotest parallel_join_matches_sequential ]
