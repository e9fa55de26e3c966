(** Command-line arguments of the benchmark. *)

type workload = Lookup | Analytic

let workload_name = function
  | Lookup -> "lubm-lookup"
  | Analytic -> "dbpedia-analytic"

let workloads = [ Lookup; Analytic ]

type t = {
  workload : workload;
  seed : int;
  seconds : float;
  trace : bool;
  out : string;  (** directory for the full report and the span file *)
}

let usage =
  "usage: main.exe --workload lubm-lookup|dbpedia-analytic --seed N \
   --seconds S --trace 0|1 [--out DIR]"

let fail msg =
  prerr_endline ("perfbench: " ^ msg);
  prerr_endline usage;
  exit 2

let parse (argv : string array) : t =
  let workload = ref None and seed = ref None and seconds = ref None in
  let trace = ref false and out = ref ".perfbench_out" in
  let rec go i =
    if i < Array.length argv then begin
      if i + 1 >= Array.length argv then fail ("missing value for " ^ argv.(i));
      let v = argv.(i + 1) in
      (match argv.(i) with
       | "--workload" ->
         workload :=
           (match List.find_opt (fun w -> workload_name w = v) workloads with
            | Some w -> Some w
            | None -> fail ("unknown workload " ^ v))
       | "--seed" ->
         seed := (match int_of_string_opt v with Some n -> Some n | None -> fail "bad --seed")
       | "--seconds" ->
         seconds :=
           (match float_of_string_opt v with
            | Some s when s > 0.0 -> Some s
            | _ -> fail "bad --seconds")
       | "--trace" ->
         trace := (match v with "0" -> false | "1" -> true | _ -> fail "bad --trace")
       | "--out" -> out := v
       | arg -> fail ("unknown argument " ^ arg));
      go (i + 2)
    end
  in
  go 1;
  match !workload, !seed, !seconds with
  | Some workload, Some seed, Some seconds ->
    { workload; seed; seconds; trace = !trace; out = !out }
  | _ -> fail "--workload, --seed and --seconds are required"
