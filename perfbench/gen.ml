(** Seeded statement streams for the workloads and the write probe.

    Datasets come from the in-repo generators ({!Workloads.Lubm},
    {!Workloads.Dbpedia}), which are deterministic; the workload seed
    only drives which statements are issued. Query constants are drawn
    from pools harvested from the generated triples themselves, so
    every constant names an entity the dataset really contains. The
    engine under test only ever sees the rendered SPARQL text.

    Templates list their constant-bearing triple pattern first: the
    engine's optimizer reorders patterns anyway, while the reference
    evaluator used as oracle joins in textual order and would otherwise
    enumerate every student before looking at the constant. *)

type kind =
  | Read  (** live read through [Engine.query_string] *)
  | Insert_data
  | Delete_data
  | Delete_where
  | Capture  (** [Engine.snapshot] *)
  | Snapshot_read  (** read against the latest snapshot *)

let all_kinds = [ Read; Insert_data; Delete_data; Delete_where; Capture; Snapshot_read ]

let kind_name = function
  | Read -> "read"
  | Insert_data -> "insert_data"
  | Delete_data -> "delete_data"
  | Delete_where -> "delete_where"
  | Capture -> "capture"
  | Snapshot_read -> "snapshot_read"

type stmt = { kind : kind; template : string; text : string }

let is_update = function
  | Insert_data | Delete_data | Delete_where -> true
  | Read | Capture | Snapshot_read -> false

let iri s = Rdf.Term.iri s

(* ------------------------------------------------------------------ *)
(* Constant pools                                                      *)
(* ------------------------------------------------------------------ *)

let pick rng (a : 'a array) = a.(Workloads.Dist.int rng (Array.length a))

(** [rounds rng items] yields [items] in a seeded order, each exactly
    once per round, reshuffled every round: the mix of a stream is
    exact, only its order and constants depend on the seed. *)
let rounds rng (items : 'a array) =
  let a = Array.copy items and i = ref (Array.length items) in
  fun () ->
    if !i = Array.length a then begin
      for k = Array.length a - 1 downto 1 do
        let j = Workloads.Dist.int rng (k + 1) in
        let x = a.(k) in
        a.(k) <- a.(j);
        a.(j) <- x
      done;
      i := 0
    end;
    let x = a.(!i) in
    incr i;
    x

(* Distinct subjects of [ty]-typed triples, in first-seen order. *)
let subjects_of_types ~type_pred ~types triples =
  let seen = Hashtbl.create 1024 and acc = ref [] in
  List.iter
    (fun (t : Rdf.Triple.t) ->
      match t.Rdf.Triple.p, t.Rdf.Triple.o, t.Rdf.Triple.s with
      | Rdf.Term.Iri p, Rdf.Term.Iri o, Rdf.Term.Iri s
        when p = type_pred && List.mem o types && not (Hashtbl.mem seen s) ->
        Hashtbl.replace seen s ();
        acc := s :: !acc
      | _ -> ())
    triples;
  Array.of_list (List.rev !acc)

(* Distinct triples with one of [preds], in first-seen order (the
   generators may emit a triple twice). *)
let triples_with_preds preds triples =
  let seen = Hashtbl.create 1024 in
  Array.of_list
    (List.filter
       (fun (t : Rdf.Triple.t) ->
         match t.Rdf.Triple.p with
         | Rdf.Term.Iri p when List.mem p preds && not (Hashtbl.mem seen t) ->
           Hashtbl.replace seen t ();
           true
         | _ -> false)
       triples)

type lubm_pools = {
  universities : string array;
  departments : string array;
  faculty : string array;
  grad_courses : string array;
  removable : Rdf.Triple.t array;
      (** generated triples the update stream may delete one by one
          (its [DELETE WHERE]s touch other predicates) *)
}

let lu = Workloads.Lubm.u

let lubm_pools triples =
  let sub types =
    subjects_of_types ~type_pred:(lu "type") ~types:(List.map lu types) triples
  in
  { universities = sub [ "University" ];
    departments = sub [ "Department" ];
    faculty =
      sub [ "FullProfessor"; "AssociateProfessor"; "AssistantProfessor"; "Lecturer" ];
    grad_courses = sub [ "GraduateCourse" ];
    removable =
      triples_with_preds
        [ lu "takesCourse" ]
        triples }

let dbp_type = Workloads.Dbpedia.ns ^ "ontology/type"
let dbp_core name = Workloads.Dbpedia.ns ^ "ontology/" ^ name
let dbp_type_prefix = Workloads.Dbpedia.ns ^ "ontology/Type"
let dbp_entity_prefix = Workloads.Dbpedia.ns ^ "resource/E"
let dbp_entity k = dbp_entity_prefix ^ string_of_int k

type dbpedia_pools = {
  types : string array;  (** TypeN IRIs present in the data, by N *)
  entities : string array;  (** E n IRIs present as subjects, by n *)
  dbp_removable : Rdf.Triple.t array;
}

(* Numeric suffix of an IRI such as ".../Type12" or ".../E345". *)
let suffix_num ~prefix s =
  let n = String.length prefix in
  if String.length s > n && String.sub s 0 n = prefix then
    int_of_string_opt (String.sub s n (String.length s - n))
  else None

(* Distinct IRIs of the form [prefix ^ N], ordered by N. *)
let numbered ~prefix iris =
  let tbl = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      match suffix_num ~prefix s with
      | Some k -> Hashtbl.replace tbl k s
      | None -> ())
    iris;
  let a = Array.of_list (Hashtbl.fold (fun k s acc -> (k, s) :: acc) tbl []) in
  Array.sort compare a;
  Array.map snd a

let dbpedia_pools triples =
  let typed =
    List.filter_map
      (fun (t : Rdf.Triple.t) ->
        match t.Rdf.Triple.s, t.Rdf.Triple.p, t.Rdf.Triple.o with
        | Rdf.Term.Iri s, Rdf.Term.Iri p, Rdf.Term.Iri o when p = dbp_type -> Some (s, o)
        | _ -> None)
      triples
  in
  { types = numbered ~prefix:dbp_type_prefix (List.map snd typed);
    entities = numbered ~prefix:dbp_entity_prefix (List.map fst typed);
    dbp_removable =
      triples_with_preds (List.map dbp_core [ "related"; "populationTotal" ]) triples }

(* ------------------------------------------------------------------ *)
(* LUBM lookup templates                                               *)
(* ------------------------------------------------------------------ *)

let union_over types body =
  String.concat " UNION "
    (List.map (fun ty -> Printf.sprintf "{ %s ?x <%s> <%s> }" body (lu "type") (lu ty)) types)

let students = [ "GraduateStudent"; "UndergraduateStudent" ]
let professors = [ "FullProfessor"; "AssociateProfessor"; "AssistantProfessor" ]

(** The selective LUBM templates: name, constant pool, rendering. *)
let lubm_templates (p : lubm_pools) : (string * string array * (string -> string)) list =
  [ ( "LQ1", p.grad_courses,
      fun gc ->
        Printf.sprintf "SELECT ?x WHERE { ?x <%s> <%s> . ?x <%s> <%s> }"
          (lu "takesCourse") gc (lu "type") (lu "GraduateStudent") );
    ( "LQ3", p.faculty,
      fun pr ->
        Printf.sprintf "SELECT ?x WHERE { ?x <%s> <%s> . ?x <%s> <%s> }"
          (lu "publicationAuthor") pr (lu "type") (lu "Publication") );
    ( "LQ4", p.departments,
      fun d ->
        Printf.sprintf "SELECT ?x ?n ?e ?p WHERE { %s }"
          (union_over professors
             (Printf.sprintf "?x <%s> <%s> . ?x <%s> ?n . ?x <%s> ?e . ?x <%s> ?p ."
                (lu "worksFor") d (lu "name") (lu "emailAddress") (lu "telephone"))) );
    ( "LQ5", p.departments,
      fun d ->
        Printf.sprintf "SELECT ?x WHERE { { ?x <%s> <%s> } UNION { ?x <%s> <%s> } }"
          (lu "memberOf") d (lu "worksFor") d );
    ( "LQ7", p.faculty,
      fun pr ->
        Printf.sprintf "SELECT ?x ?y WHERE { %s }"
          (union_over students
             (Printf.sprintf "<%s> <%s> ?y . ?x <%s> ?y ." pr (lu "teacherOf")
                (lu "takesCourse"))) );
    ( "LQ8", p.universities,
      fun un ->
        Printf.sprintf "SELECT ?x ?y ?z WHERE { %s }"
          (union_over students
             (Printf.sprintf "?y <%s> <%s> . ?y <%s> <%s> . ?x <%s> ?y . ?x <%s> ?z ."
                (lu "subOrganizationOf") un (lu "type") (lu "Department")
                (lu "memberOf") (lu "emailAddress"))) );
    ( "LQ10", p.grad_courses,
      fun gc ->
        Printf.sprintf "SELECT ?x WHERE { %s }"
          (union_over students (Printf.sprintf "?x <%s> <%s> ." (lu "takesCourse") gc)) );
    ( "LQ13", p.universities,
      fun un ->
        Printf.sprintf
          "SELECT ?x WHERE { { ?x <%s> <%s> } UNION { ?x <%s> <%s> } UNION { ?x <%s> <%s> } }"
          (lu "undergraduateDegreeFrom") un (lu "mastersDegreeFrom") un
          (lu "doctoralDegreeFrom") un ) ]

(** Reads cycling through the templates in rounds, each with a drawn
    constant. *)
let lubm_reads rng pools kind =
  let next = rounds rng (Array.of_list (lubm_templates pools)) in
  fun () ->
    let name, pool, render = next () in
    { kind; template = name; text = render (pick rng pool) }

(* ------------------------------------------------------------------ *)
(* DBpedia analytic templates                                          *)
(* ------------------------------------------------------------------ *)

(** Constant pool of the analytic stream: the three most popular types
    (so the heaviest joins appear in every run and the cost mix does
    not hinge on the seed) and three seeded entities among the oldest
    thousand, which carry the most links. *)
type dbpedia_consts = { tys : string array; ents : string array }

let variants = 3

let dbpedia_consts rng (p : dbpedia_pools) =
  let ents =
    List.map (fun k -> p.entities.(k))
      (Workloads.Dist.distinct_ints rng ~k:variants
         ~bound:(min 1000 (Array.length p.entities)))
  in
  { tys = Array.sub p.types 0 (min variants (Array.length p.types));
    ents = Array.of_list ents }

(** DQ1–DQ20 with their constants abstracted: each template renders
    variant [v] (0 ≤ v < {!variants}) from the pool; constant-free
    templates ignore [v]. *)
let dbpedia_templates (c : dbpedia_consts) : (string * bool * (int -> string)) list =
  let t = dbp_type and label = dbp_core "label" and abstract = dbp_core "abstract" in
  let related = dbp_core "related" and birth = dbp_core "birthPlace" in
  let loc = dbp_core "location" and popn = dbp_core "populationTotal" in
  let ty v = c.tys.(v mod Array.length c.tys) in
  let ty' v = c.tys.((v + 1) mod Array.length c.tys) in
  let e v = c.ents.(v mod Array.length c.ents) in
  let e' v = c.ents.((v + 1) mod Array.length c.ents) in
  let p = Printf.sprintf in
  [ ("DQ1", true, fun v -> p "SELECT ?p ?o WHERE { <%s> ?p ?o }" (e v));
    ("DQ2", true, fun v -> p "SELECT ?x WHERE { ?x <%s> <%s> }" t (ty v));
    ("DQ3", true, fun v -> p "SELECT ?x ?l WHERE { ?x <%s> <%s> . ?x <%s> ?l }" t (ty v) label);
    ( "DQ4", true,
      fun v ->
        p "SELECT ?x ?a WHERE { ?x <%s> <%s> . ?x <%s> ?a . ?x <%s> ?n FILTER (?n > 500000) }"
          t (ty v) abstract popn );
    ("DQ5", true, fun v -> p "SELECT ?x WHERE { ?x <%s> <%s> }" related (e v));
    ("DQ6", true, fun v -> p "SELECT ?x ?y WHERE { ?y <%s> <%s> . ?x <%s> ?y }" t (ty v) related);
    ( "DQ7", true,
      fun v ->
        p "SELECT ?x ?l WHERE { { ?x <%s> <%s> } UNION { ?x <%s> <%s> } . ?x <%s> ?l }" t
          (ty v) t (ty' v) label );
    ( "DQ8", true,
      fun v -> p "SELECT ?x ?b WHERE { ?x <%s> <%s> OPTIONAL { ?x <%s> ?b } }" t (ty v) birth );
    ("DQ9", false, fun _ -> p "SELECT ?x WHERE { ?x <%s> ?l FILTER REGEX(?l, \"Entity 12\") }" label);
    ("DQ10", true, fun v -> p "SELECT ?s ?p WHERE { ?s ?p <%s> }" (e v));
    ( "DQ11", true,
      fun v ->
        p "SELECT ?x ?y ?z WHERE { ?z <%s> <%s> . ?y <%s> ?z . ?x <%s> ?y }" t (ty v) related
          related );
    ( "DQ12", false,
      fun _ -> p "SELECT ?x ?n WHERE { ?x <%s> ?n FILTER (?n >= 100000) FILTER (?n <= 200000) }" popn );
    ( "DQ13", true,
      fun v ->
        p "SELECT ?x ?l ?a WHERE { ?x <%s> <%s> . ?x <%s> ?l OPTIONAL { ?x <%s> ?a } } LIMIT 50" t
          (ty v) label abstract );
    ( "DQ14", true,
      fun v -> p "SELECT DISTINCT ?ty WHERE { ?x <%s> <%s> . ?x <%s> ?ty }" related (e v) t );
    ("DQ15", true, fun v -> p "SELECT ?x WHERE { ?b <%s> <%s> . ?x <%s> ?b }" t (ty v) birth);
    ( "DQ16", true,
      fun v ->
        p "SELECT ?x ?y WHERE { ?x <%s> <%s> . ?x <%s> ?y . ?y <%s> <%s> }" t (ty v) related t
          (ty v) );
    ("DQ17", false, fun _ -> p "SELECT ?x ?l WHERE { { ?x <%s> ?l } UNION { ?x <%s> ?l } }" label abstract);
    ( "DQ18", true,
      fun v ->
        p "SELECT ?x WHERE { ?z <%s> <%s> . ?y <%s> ?z . ?x <%s> ?y . ?x <%s> <%s> }" t (ty v)
          related loc t (ty' v) );
    ( "DQ19", true,
      fun v -> p "SELECT ?x ?n WHERE { ?x <%s> <%s> . ?x <%s> ?n } ORDER BY ?n LIMIT 20" t (ty v) popn );
    ("DQ20", true, fun v -> p "SELECT ?p ?o WHERE { { <%s> ?p ?o } UNION { <%s> ?p ?o } }" (e v) (e' v)) ]

(** Every distinct analytic text a stream with these constants can
    issue, with its template. *)
let dbpedia_texts c =
  List.concat_map
    (fun (name, param, render) ->
      List.map (fun v -> (name, render v)) (if param then List.init variants Fun.id else [ 0 ]))
    (dbpedia_templates c)

(** Reads cycling in rounds through the given (template, text) pairs. *)
let dbpedia_reads rng texts kind =
  let next = rounds rng (Array.of_list texts) in
  fun () ->
    let template, text = next () in
    { kind; template; text }

(* ------------------------------------------------------------------ *)
(* Update scripts                                                      *)
(* ------------------------------------------------------------------ *)

(* Entities the update stream inserted and has not deleted yet, with
   the triples each still holds. *)
type live = { mutable ents : (string * Rdf.Triple.t list) array; mutable n : int }

let live_add l e =
  if l.n = Array.length l.ents then begin
    let a = Array.make (max 16 (2 * l.n)) ("", []) in
    Array.blit l.ents 0 a 0 l.n;
    l.ents <- a
  end;
  l.ents.(l.n) <- e;
  l.n <- l.n + 1

let live_take l i =
  let e = l.ents.(i) in
  l.ents.(i) <- l.ents.(l.n - 1);
  l.n <- l.n - 1;
  e

let render u = Sparql.Pp.update_to_string u

let lubm_insert pools counter rng =
  let d = pick rng pools.departments in
  incr counter;
  let n = !counter in
  (* Generated departments number their people below 50. *)
  let x = iri (Printf.sprintf "%s/Person%d" d (1000 + n)) in
  let tr p o = Rdf.Triple.make x (iri (lu p)) o in
  ( x,
    [ tr "type" (iri (lu "GraduateStudent"));
      tr "memberOf" (iri d);
      tr "name" (Rdf.Term.lit (Printf.sprintf "NewPerson%d" n));
      tr "emailAddress" (Rdf.Term.lit (Printf.sprintf "new%d@perfbench.edu" n));
      tr "takesCourse"
        (iri (Printf.sprintf "%s/GraduateCourse%d" d (Workloads.Dist.int rng 4)));
      tr "advisor" (iri (Printf.sprintf "%s/Person%d" d (Workloads.Dist.int rng 6)));
      tr "undergraduateDegreeFrom" (iri (pick rng pools.universities)) ] )

let dbpedia_insert pools counter rng =
  incr counter;
  let n = !counter in
  let x = iri (dbp_entity (10_000_000 + n)) in
  let tr p o = Rdf.Triple.make x (iri p) o in
  let links =
    List.init (1 + Workloads.Dist.int rng 3) (fun _ ->
        tr (dbp_core "related") (iri (pick rng pools.entities)))
  in
  let tail =
    List.init (Workloads.Dist.int rng 4) (fun _ ->
        tr
          (Printf.sprintf "%sproperty/p%d" Workloads.Dbpedia.ns (Workloads.Dist.int rng 500))
          (Rdf.Term.lit (Printf.sprintf "v%d" (Workloads.Dist.int rng 1000))))
  in
  ( x,
    [ tr dbp_type (iri (pick rng pools.types));
      tr (dbp_core "label") (Rdf.Term.lit (Printf.sprintf "New entity %d" n));
      tr (dbp_core "populationTotal") (Rdf.Term.int_lit (Workloads.Dist.int rng 1_000_000)) ]
    @ links @ tail )

(** An update generator: inserts fresh entities shaped like the
    dataset's, deletes single triples (of inserted entities or of the
    generated data, so packed main rows get tombstoned too) and deletes
    whole inserted entities with [DELETE WHERE]. *)
let updates ~insert ~removable ~fallback_where rng =
  let live = { ents = [||]; n = 0 } and counter = ref 0 in
  (* Each generated triple is deleted at most once, so every delete
     finds its triple. *)
  let used = Hashtbl.create 1024 in
  let rec fresh_removable () =
    if Hashtbl.length used = Array.length removable then
      failwith "update generator: every generated triple already deleted";
    let i = Workloads.Dist.int rng (Array.length removable) in
    if Hashtbl.mem used i then fresh_removable ()
    else begin
      Hashtbl.replace used i ();
      removable.(i)
    end
  in
  (* One of each kind per round: their latencies form three clusters
     (DELETE DATA fastest, INSERT DATA slowest on both datasets), so
     the p50 falls mid-cluster rather than on the edge between two. *)
  let kinds = rounds rng [| Insert_data; Delete_data; Delete_where |] in
  fun () ->
    let k = kinds () in
    if k = Insert_data || live.n = 0 then begin
      let x, ts = insert counter rng in
      live_add live (Rdf.Term.to_string x, ts);
      { kind = Insert_data; template = "insert"; text = render (Sparql.Ast.Insert_data ts) }
    end
    else if k = Delete_data then begin
      let t =
        if Workloads.Dist.bool rng 0.5 then begin
          let i = Workloads.Dist.int rng live.n in
          let x, ts = live.ents.(i) in
          match ts with
          | [] | [ _ ] -> fresh_removable ()
          | t :: rest ->
            live.ents.(i) <- (x, rest);
            t
        end
        else fresh_removable ()
      in
      { kind = Delete_data; template = "delete"; text = render (Sparql.Ast.Delete_data [ t ]) }
    end
    else begin
      let text =
        if Workloads.Dist.bool rng 0.8 then
          let x, _ = live_take live (Workloads.Dist.int rng live.n) in
          Printf.sprintf "DELETE WHERE { %s ?p ?o }" x
        else fallback_where rng
      in
      { kind = Delete_where; template = "delete_where"; text }
    end

let lubm_updates pools rng =
  updates ~insert:(lubm_insert pools) ~removable:pools.removable
    ~fallback_where:(fun rng ->
      Printf.sprintf "DELETE WHERE { <%s> <%s> ?t }" (pick rng pools.faculty) (lu "telephone"))
    rng

let dbpedia_updates pools rng =
  updates ~insert:(dbpedia_insert pools) ~removable:pools.dbp_removable
    ~fallback_where:(fun rng ->
      Printf.sprintf "DELETE WHERE { <%s> <%s> ?o }" (pick rng pools.entities)
        (dbp_core "abstract"))
    rng

(* ------------------------------------------------------------------ *)
(* Streams                                                             *)
(* ------------------------------------------------------------------ *)

(* Distinct sub-streams of one seed get distinct generator states. *)
let rng_for ~seed salt = Workloads.Dist.create ((seed * 7919) + salt)

(** The lookup stream: selective LUBM templates in rounds, a drawn
    constant each. *)
let lookup_stream ~seed pools = lubm_reads (rng_for ~seed 1) pools Read

let analytic_stream ~seed pools =
  dbpedia_reads (rng_for ~seed 3) (dbpedia_texts (dbpedia_consts (rng_for ~seed 2) pools)) Read

(** Snapshot reads of the write probe. *)
let lubm_probe_reads ~seed pools = lubm_reads (rng_for ~seed 6) pools Snapshot_read

(* On DBpedia the snapshot reads are the entity lookups: every capture
   is followed by a write, so each capture's answers are checked anew,
   and the reference evaluator needs up to 0.3 s for the heavier
   templates. *)
let dbpedia_probe_reads ~seed pools =
  let entity = [ "DQ1"; "DQ5"; "DQ10"; "DQ14"; "DQ20" ] in
  dbpedia_reads (rng_for ~seed 7)
    (List.filter
       (fun (name, _) -> List.mem name entity)
       (dbpedia_texts (dbpedia_consts (rng_for ~seed 2) pools)))
    Snapshot_read

let take n next = List.init n (fun _ -> next ())
