(** Benchmark harness shared by every experiment: store construction,
    warm-cache timing (the paper's protocol: discard the first run,
    average the rest), outcome classification against an oracle count,
    and fixed-width table printing. *)

type config = {
  scale : int;  (** approximate triples per dataset *)
  runs : int;  (** timed runs after the warm-up run *)
  timeout : float;  (** per-query timeout in seconds (paper: 10 min) *)
  experiments : string list;  (** empty = all *)
  json_dir : string option;  (** write BENCH_*.json result files here *)
  json_tag : string option;
      (** suffix spliced into result file names ([BENCH_x.json] ->
          [BENCH_x_TAG.json]) so e.g. a small-scale smoke run can sit
          next to a committed full-scale result without clobbering it *)
  domains : int;  (** largest executor-domain count in the parallel
                      scaling experiment (the curve doubles up to it) *)
  compare : (string * string) option;
      (** [--compare OLD NEW]: diff two BENCH_*.json files instead of
          running experiments; exits non-zero on a >10% regression *)
}

let default_config =
  { scale = 30_000; runs = 3; timeout = 10.0; experiments = [];
    json_dir = None; json_tag = None; domains = 4; compare = None }

let parse_args () =
  let cfg = ref default_config in
  let cmp_old = ref "" in
  let specs =
    [ ("--scale", Arg.Int (fun s -> cfg := { !cfg with scale = s }),
       "N  approximate dataset size in triples (default 30000)");
      ("--compare",
       Arg.Tuple
         [ Arg.String (fun a -> cmp_old := a);
           Arg.String
             (fun b -> cfg := { !cfg with compare = Some (!cmp_old, b) }) ],
       "OLD NEW  compare two BENCH_*.json result files (per-experiment and \
        overall geomean deltas; exit 1 when NEW is >10% slower overall)");
      ("--runs", Arg.Int (fun r -> cfg := { !cfg with runs = r }),
       "N  timed runs per query after warm-up (default 3)");
      ("--timeout", Arg.Float (fun t -> cfg := { !cfg with timeout = t }),
       "S  per-query timeout in seconds (default 10)");
      ("-e", Arg.String (fun e -> cfg := { !cfg with experiments = e :: !cfg.experiments }),
       "NAME  run only this experiment (repeatable)");
      ("--json-dir", Arg.String (fun d -> cfg := { !cfg with json_dir = Some d }),
       "DIR  also write machine-readable BENCH_*.json result files into DIR");
      ("--json-tag", Arg.String (fun t -> cfg := { !cfg with json_tag = Some t }),
       "TAG  write result files as BENCH_*_TAG.json instead of BENCH_*.json");
      ("--domains", Arg.Int (fun n -> cfg := { !cfg with domains = n }),
       "N  largest executor-domain count in the parallel scaling curve \
        (default 4)") ]
  in
  Arg.parse specs
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench [--scale N] [--runs N] [--timeout S] [--json-dir DIR] \
     [--json-tag TAG] [--domains N] \
     [-e experiment]... | bench --compare OLD.json NEW.json";
  !cfg

let enabled cfg name = cfg.experiments = [] || List.mem name cfg.experiments

let section title =
  Printf.printf "\n%s\n%s\n%!" title (String.make (String.length title) '=')

let subsection title = Printf.printf "\n-- %s --\n%!" title

(* ------------------------------------------------------------------ *)
(* Store construction                                                  *)
(* ------------------------------------------------------------------ *)

type system = { sys_name : string; store : Db2rdf.Store.t; load_seconds : float }

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let build_db2rdf ?(name = "DB2RDF") ?(options = Db2rdf.Engine.default_options)
    triples =
  let (engine_store, _, _), load_seconds =
    timed (fun () ->
        Db2rdf.Engine.create_colored ~options
          ~layout:(Db2rdf.Layout.make ~dph_cols:24 ~rph_cols:24) triples)
  in
  { sys_name = name; store = Db2rdf.Engine.to_store ~name engine_store; load_seconds }

let build_db2rdf_naive triples =
  build_db2rdf ~name:"DB2RDF-naive"
    ~options:
      { Db2rdf.Engine.default_options with
        optimize = false; merge = false; late_fuse = false }
    triples

let build_triple_store triples =
  let ts, load_seconds =
    timed (fun () ->
        let ts = Db2rdf.Triple_store.create () in
        Db2rdf.Triple_store.load ts triples;
        ts)
  in
  { sys_name = "TripleStore"; store = Db2rdf.Triple_store.to_store ts; load_seconds }

let build_vertical_store triples =
  let vs, load_seconds =
    timed (fun () ->
        let vs = Db2rdf.Vertical_store.create () in
        Db2rdf.Vertical_store.load vs triples;
        vs)
  in
  { sys_name = "VertStore"; store = Db2rdf.Vertical_store.to_store vs; load_seconds }

let build_native triples =
  let ns, load_seconds =
    timed (fun () ->
        let ns = Db2rdf.Native_store.create () in
        Db2rdf.Native_store.load ns triples;
        ns)
  in
  { sys_name = "NativeRef"; store = Db2rdf.Native_store.to_store ns; load_seconds }

(* ------------------------------------------------------------------ *)
(* Query measurement                                                   *)
(* ------------------------------------------------------------------ *)

type measurement = {
  m_query : string;
  m_system : string;
  m_outcome : [ `Complete of int | `Timeout | `Error of string | `Unsupported ];
  m_seconds : float;  (** mean wall-clock over timed runs; timeout value
                          when timed out *)
}

(** Measure one query on one system: one warm-up run, then [runs] timed
    runs, mean reported (the paper's warm-cache protocol). [expected]
    is the oracle row count; a differing count classifies as error. *)
let measure cfg ?expected (sys : system) qname (q : Sparql.Ast.query) : measurement =
  let run1 () = Db2rdf.Store.run ~timeout:cfg.timeout sys.store q in
  match run1 () with
  | Db2rdf.Store.Timed_out, _ ->
    { m_query = qname; m_system = sys.sys_name; m_outcome = `Timeout;
      m_seconds = cfg.timeout }
  | Db2rdf.Store.Unsupported _, _ ->
    { m_query = qname; m_system = sys.sys_name; m_outcome = `Unsupported;
      m_seconds = 0.0 }
  | Db2rdf.Store.Failed msg, _ ->
    { m_query = qname; m_system = sys.sys_name; m_outcome = `Error msg;
      m_seconds = 0.0 }
  | Db2rdf.Store.Complete first, _ ->
    let count = List.length first.Sparql.Ref_eval.rows in
    (match expected with
     | Some n when n <> count ->
       { m_query = qname; m_system = sys.sys_name;
         m_outcome = `Error (Printf.sprintf "expected %d rows, got %d" n count);
         m_seconds = 0.0 }
     | _ ->
       let total = ref 0.0 in
       let timed_out = ref false in
       for _ = 1 to cfg.runs do
         match run1 () with
         | Db2rdf.Store.Complete _, dt -> total := !total +. dt
         | _ -> timed_out := true
       done;
       if !timed_out then
         { m_query = qname; m_system = sys.sys_name; m_outcome = `Timeout;
           m_seconds = cfg.timeout }
       else
         { m_query = qname; m_system = sys.sys_name;
           m_outcome = `Complete count;
           m_seconds = !total /. float_of_int cfg.runs })

(** Measure one query and additionally collect one per-operator metrics
    tree via the store's EXPLAIN ANALYZE path (a single extra execution;
    [None] when the store has no relational executor or the analyzed run
    fails). *)
let measure_analyzed cfg ?expected (sys : system) qname q :
  measurement * Relsql.Opstats.t option =
  let m = measure cfg ?expected sys qname q in
  let stats =
    match m.m_outcome with
    | `Complete _ ->
      (try snd (sys.store.Db2rdf.Store.analyze ~timeout:cfg.timeout q)
       with _ -> None)
    | _ -> None
  in
  (m, stats)

let outcome_cell (m : measurement) =
  match m.m_outcome with
  | `Complete _ -> Printf.sprintf "%8.1f" (m.m_seconds *. 1000.0)
  | `Timeout -> " timeout"
  | `Error _ -> "   error"
  | `Unsupported -> "  unsup."

(* ------------------------------------------------------------------ *)
(* Table printing                                                      *)
(* ------------------------------------------------------------------ *)

let print_row widths cells =
  List.iter2 (fun w c -> Printf.printf "%-*s" (w + 2) c) widths cells;
  print_newline ()

let print_table header rows =
  let widths =
    List.mapi
      (fun i h ->
        List.fold_left (fun acc row -> max acc (String.length (List.nth row i)))
          (String.length h) rows)
      header
  in
  print_row widths header;
  print_row widths (List.map (fun w -> String.make w '-') widths);
  List.iter (print_row widths) rows;
  flush stdout

(* ------------------------------------------------------------------ *)
(* JSON result files                                                   *)
(* ------------------------------------------------------------------ *)

(** Just enough JSON to serialize benchmark results — no external
    dependency. *)
type json =
  | J_int of int
  | J_float of float
  | J_bool of bool
  | J_str of string
  | J_list of json list
  | J_obj of (string * json) list

let json_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let rec json_write buf indent j =
  let pad n = String.make n ' ' in
  match j with
  | J_int i -> Buffer.add_string buf (string_of_int i)
  | J_bool b -> Buffer.add_string buf (string_of_bool b)
  | J_float x ->
    (* JSON has no NaN/Infinity; clamp to null-ish zero. *)
    if Float.is_finite x then Buffer.add_string buf (Printf.sprintf "%.6g" x)
    else Buffer.add_string buf "0"
  | J_str s -> Buffer.add_string buf ("\"" ^ json_escape s ^ "\"")
  | J_list [] -> Buffer.add_string buf "[]"
  | J_list items ->
    Buffer.add_string buf "[\n";
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_string buf ",\n";
        Buffer.add_string buf (pad (indent + 2));
        json_write buf (indent + 2) item)
      items;
    Buffer.add_string buf ("\n" ^ pad indent ^ "]")
  | J_obj [] -> Buffer.add_string buf "{}"
  | J_obj fields ->
    Buffer.add_string buf "{\n";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_string buf ",\n";
        Buffer.add_string buf (pad (indent + 2) ^ "\"" ^ json_escape k ^ "\": ");
        json_write buf (indent + 2) v)
      fields;
    Buffer.add_string buf ("\n" ^ pad indent ^ "}")

let json_to_string j =
  let buf = Buffer.create 4096 in
  json_write buf 0 j;
  Buffer.add_char buf '\n';
  Buffer.contents buf

(** Write a result file into [cfg.json_dir] (no-op when unset). A
    top-level object gets a host header — core count and compiler
    version — prepended, so result files carry the machine context they
    were measured on. *)
let write_json cfg ~file j =
  match cfg.json_dir with
  | None -> ()
  | Some dir ->
    let j =
      match j with
      | J_obj fields ->
        J_obj
          (("host_cores", J_int (Domain.recommended_domain_count ()))
           :: ("ocaml_version", J_str Sys.ocaml_version)
           :: fields)
      | j -> j
    in
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let file =
      match cfg.json_tag with
      | None -> file
      | Some tag ->
        Filename.remove_extension file ^ "_" ^ tag
        ^ Filename.extension file
    in
    let path = Filename.concat dir file in
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc (json_to_string j));
    Printf.printf "wrote %s\n%!" path

(** Serialize a per-operator metrics tree. *)
let rec opstats_json (s : Relsql.Opstats.t) : json =
  J_obj
    ([ ("op", J_str s.Relsql.Opstats.label);
       ("rows_in", J_int s.Relsql.Opstats.rows_in);
       ("rows_out", J_int s.Relsql.Opstats.rows_out) ]
     @ (if s.Relsql.Opstats.index_probes > 0 then
          [ ("index_probes", J_int s.Relsql.Opstats.index_probes) ]
        else [])
     @ (if s.Relsql.Opstats.build_rows > 0 then
          [ ("build_rows", J_int s.Relsql.Opstats.build_rows) ]
        else [])
     @ (if s.Relsql.Opstats.workers > 1 then
          [ ("workers", J_int s.Relsql.Opstats.workers);
            ("par_ms", J_float s.Relsql.Opstats.par_ms) ]
        else [])
     @ (if s.Relsql.Opstats.cache_hits + s.Relsql.Opstats.cache_misses > 0 then
          [ ("scan_cache_hits", J_int s.Relsql.Opstats.cache_hits);
            ("scan_cache_misses", J_int s.Relsql.Opstats.cache_misses) ]
        else [])
     @ [ ("ms", J_float (1000.0 *. s.Relsql.Opstats.seconds));
         ("self_ms", J_float (1000.0 *. Relsql.Opstats.self_seconds s)) ]
     @
     match s.Relsql.Opstats.children with
     | [] -> []
     | cs -> [ ("children", J_list (List.map opstats_json cs)) ])

let measurement_json (m : measurement) : json =
  let outcome, extra =
    match m.m_outcome with
    | `Complete n -> ("complete", [ ("results", J_int n) ])
    | `Timeout -> ("timeout", [])
    | `Error msg -> ("error", [ ("message", J_str msg) ])
    | `Unsupported -> ("unsupported", [])
  in
  J_obj
    ([ ("system", J_str m.m_system); ("outcome", J_str outcome) ]
     @ extra
     @ [ ("ms", J_float (1000.0 *. m.m_seconds)) ])

(* ------------------------------------------------------------------ *)
(* JSON reading + result comparison (--compare)                        *)
(* ------------------------------------------------------------------ *)

exception Json_error of string

(** Minimal JSON parser, the dual of {!json_write} — enough to read the
    BENCH_*.json files this harness produces. *)
let json_parse (s : string) : json =
  let n = String.length s in
  let i = ref 0 in
  let peek () = if !i < n then s.[!i] else '\000' in
  let advance () = incr i in
  let fail msg = raise (Json_error (Printf.sprintf "%s at offset %d" msg !i)) in
  let rec skip_ws () =
    match peek () with
    | ' ' | '\t' | '\n' | '\r' -> advance (); skip_ws ()
    | _ -> ()
  in
  let expect c =
    if peek () = c then advance ()
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '\000' -> fail "unterminated string"
      | '"' -> advance ()
      | '\\' ->
        advance ();
        (match peek () with
         | '"' -> Buffer.add_char buf '"'; advance ()
         | '\\' -> Buffer.add_char buf '\\'; advance ()
         | '/' -> Buffer.add_char buf '/'; advance ()
         | 'n' -> Buffer.add_char buf '\n'; advance ()
         | 't' -> Buffer.add_char buf '\t'; advance ()
         | 'r' -> Buffer.add_char buf '\r'; advance ()
         | 'b' -> Buffer.add_char buf '\b'; advance ()
         | 'f' -> Buffer.add_char buf '\012'; advance ()
         | 'u' ->
           advance ();
           if !i + 4 > n then fail "bad \\u escape";
           let code = int_of_string ("0x" ^ String.sub s !i 4) in
           i := !i + 4;
           (* BENCH files only escape control chars; keep it simple *)
           if code < 128 then Buffer.add_char buf (Char.chr code)
           else Buffer.add_char buf '?'
         | _ -> fail "bad escape");
        go ()
      | c -> Buffer.add_char buf c; advance (); go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !i in
    let num_char c =
      (c >= '0' && c <= '9') || c = '-' || c = '+' || c = '.' || c = 'e'
      || c = 'E'
    in
    while num_char (peek ()) do advance () done;
    let tok = String.sub s start (!i - start) in
    match int_of_string_opt tok with
    | Some x -> J_int x
    | None ->
      (match float_of_string_opt tok with
       | Some x -> J_float x
       | None -> fail ("bad number " ^ tok))
  in
  let literal word v =
    let l = String.length word in
    if !i + l <= n && String.sub s !i l = word then begin
      i := !i + l;
      v
    end
    else fail ("bad literal, expected " ^ word)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | '{' ->
      advance ();
      skip_ws ();
      if peek () = '}' then begin advance (); J_obj [] end
      else begin
        let fields = ref [] in
        let rec members () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          fields := (k, v) :: !fields;
          skip_ws ();
          match peek () with
          | ',' -> advance (); members ()
          | '}' -> advance ()
          | _ -> fail "expected ',' or '}'"
        in
        members ();
        J_obj (List.rev !fields)
      end
    | '[' ->
      advance ();
      skip_ws ();
      if peek () = ']' then begin advance (); J_list [] end
      else begin
        let items = ref [] in
        let rec elements () =
          let v = parse_value () in
          items := v :: !items;
          skip_ws ();
          match peek () with
          | ',' -> advance (); elements ()
          | ']' -> advance ()
          | _ -> fail "expected ',' or ']'"
        in
        elements ();
        J_list (List.rev !items)
      end
    | '"' -> J_str (parse_string ())
    | 't' -> literal "true" (J_str "true")
    | 'f' -> literal "false" (J_str "false")
    | 'n' -> literal "null" (J_str "null")
    | _ -> parse_number ()
  in
  let v = parse_value () in
  skip_ws ();
  if !i <> n then fail "trailing garbage";
  v

let json_read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  json_parse s

(** Flatten a BENCH json tree to [(key, milliseconds)] pairs. A key is
    the '/'-joined chain of identifying fields (experiment, workload,
    query, system, grid coordinates) from the root down to a timing
    field ("ms", "boxed_ms", "packed_ms"). Non-complete measurements
    and per-operator metric trees are skipped. *)
let collect_timings (j : json) : (string * float) list =
  let ms_of = function J_int x -> float_of_int x | J_float x -> x | _ -> 0.0 in
  let rec walk path j acc =
    match j with
    | J_list items -> List.fold_left (fun acc it -> walk path it acc) acc items
    | J_obj fields ->
      if List.mem_assoc "op" fields then acc (* opstats subtree *)
      else begin
        let skip =
          match List.assoc_opt "outcome" fields with
          | Some (J_str o) -> o <> "complete"
          | _ -> false
        in
        if skip then acc
        else begin
          let tag k =
            match List.assoc_opt k fields with
            | Some (J_str s) -> Some s
            | Some (J_int i) -> Some (Printf.sprintf "%s=%d" k i)
            | _ -> None
          in
          let path =
            path
            @ List.filter_map tag
                [ "experiment"; "workload"; "query"; "system"; "domains" ]
          in
          List.fold_left
            (fun acc (k, v) ->
              match (k, v) with
              | ("ms" | "boxed_ms" | "packed_ms"), (J_int _ | J_float _) ->
                let key =
                  String.concat "/" (path @ if k = "ms" then [] else [ k ])
                in
                (key, ms_of v) :: acc
              | _, (J_obj _ | J_list _) -> walk path v acc
              | _ -> acc)
            acc fields
        end
      end
    | _ -> acc
  in
  List.rev (walk [] j [])

(** The pure core of [--compare]: shared keys with both timings, keys
    present on only one side (added in [new], removed from [old]), and
    the overall geometric-mean ratio over the shared keys only — so a
    run that gained or lost whole experiments is diffed on the
    intersection instead of failing or skewing the mean. *)
type comparison = {
  c_shared : (string * float * float) list;  (** key, old ms, new ms *)
  c_removed : string list;  (** keys only the old file has *)
  c_added : string list;  (** keys only the new file has *)
  c_overall : float option;  (** geomean of new/old over shared keys *)
}

let geomean = function
  | [] -> None
  | xs ->
    Some
      (exp
         (List.fold_left (fun s x -> s +. log x) 0.0 xs
          /. float_of_int (List.length xs)))

let compare_timings (a : (string * float) list) (b : (string * float) list) :
    comparison =
  let shared =
    List.filter_map
      (fun (k, va) ->
        match List.assoc_opt k b with
        | Some vb when va > 0.0 && vb > 0.0 -> Some (k, va, vb)
        | _ -> None)
      a
  in
  let only xs ys = List.filter_map
      (fun (k, _) -> if List.mem_assoc k ys then None else Some k) xs
  in
  { c_shared = shared;
    c_removed = only a b;
    c_added = only b a;
    c_overall = geomean (List.map (fun (_, va, vb) -> vb /. va) shared) }

(** Compare two benchmark result files. Prints per-key and
    per-experiment deltas, lists experiments present on only one side
    (excluded from every mean), and returns [false] (a regression) only
    when the geometric mean over the {e shared} timings shows [new]
    more than 10% slower than [old]. *)
let compare_results old_file new_file =
  let a = collect_timings (json_read_file old_file) in
  let b = collect_timings (json_read_file new_file) in
  let c = compare_timings a b in
  let list_extra label keys =
    if keys <> [] then begin
      Printf.printf "%s (%d keys, excluded from the comparison):\n" label
        (List.length keys);
      List.iter (fun k -> Printf.printf "  %s\n" k) keys
    end
  in
  list_extra "only in old" c.c_removed;
  list_extra "only in new" c.c_added;
  match c.c_overall with
  | None ->
    Printf.printf "no shared completed timings between %s and %s\n" old_file
      new_file;
    (* Disjoint experiment sets leave nothing to judge — that is not a
       regression; two files with no timings at all are. *)
    c.c_removed <> [] || c.c_added <> []
  | Some overall ->
    Printf.printf "%-64s %10s %10s %8s\n" "key" "old ms" "new ms" "ratio";
    Printf.printf "%s\n" (String.make 94 '-');
    List.iter
      (fun (k, va, vb) ->
        Printf.printf "%-64s %10.2f %10.2f %7.2fx%s\n" k va vb (vb /. va)
          (if vb > va *. 1.10 then "  <-- slower" else ""))
      c.c_shared;
    (* group by leading path component (the experiment) *)
    let groups = Hashtbl.create 8 in
    List.iter
      (fun (k, va, vb) ->
        let exp_name =
          match String.index_opt k '/' with
          | Some p -> String.sub k 0 p
          | None -> k
        in
        Hashtbl.replace groups exp_name
          ((vb /. va)
           :: (try Hashtbl.find groups exp_name with Not_found -> [])))
      c.c_shared;
    Printf.printf "\nper-experiment geomean (new/old; < 1 is faster):\n";
    Hashtbl.iter
      (fun name ratios ->
        match geomean ratios with
        | Some g ->
          Printf.printf "  %-32s %6.3fx over %d timings\n" name g
            (List.length ratios)
        | None -> ())
      groups;
    Printf.printf "\noverall geomean: %.3fx over %d shared timings\n" overall
      (List.length c.c_shared);
    if overall > 1.10 then begin
      Printf.printf "REGRESSION: new results are >10%% slower overall\n";
      false
    end
    else begin
      Printf.printf "OK: within the 10%% regression budget\n";
      true
    end
