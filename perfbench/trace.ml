(** In-memory span recorder for the traced run.

    A span is one call into a layer's public function: name, start,
    end, the enclosing span and the statement it belongs to. Spans are
    kept in memory while the run executes and written out once at the
    end. A span's self time is its duration minus the part of it its
    child spans cover. *)

type span = {
  name : string;
  stmt : int;  (** statement id within the run (-1 = set-up) *)
  parent : int;  (** index of the enclosing span, -1 for a root *)
  start : float;
  mutable stop : float;
  mutable off_path : bool;
      (** the layer ran here only because the traced path always runs
          it; the engine's own path skipped it (statement-cache hit) *)
}

type t = { mutable spans : span array; mutable n : int; mutable stack : int list }

let create () = { spans = [||]; n = 0; stack = [] }

let push t s =
  if t.n = Array.length t.spans then begin
    let a = Array.make (max 1024 (2 * t.n)) s in
    Array.blit t.spans 0 a 0 t.n;
    t.spans <- a
  end;
  t.spans.(t.n) <- s;
  t.n <- t.n + 1;
  t.n - 1

(** Run [f] inside a span named [name]. *)
let span t ~stmt name f =
  let parent = match t.stack with p :: _ -> p | [] -> -1 in
  let s = { name; stmt; parent; start = Unix.gettimeofday (); stop = 0.0; off_path = false } in
  let id = push t s in
  t.stack <- id :: t.stack;
  let finish () =
    s.stop <- Unix.gettimeofday ();
    t.stack <- List.tl t.stack
  in
  match f () with
  | r ->
    finish ();
    r
  | exception e ->
    finish ();
    raise e

let spans t = Array.sub t.spans 0 t.n
let duration s = s.stop -. s.start

(** Self time of every span, indexed like {!spans}. *)
let self_times t =
  let self = Array.init t.n (fun i -> duration t.spans.(i)) in
  for i = 0 to t.n - 1 do
    let p = t.spans.(i).parent in
    if p >= 0 then self.(p) <- self.(p) -. duration t.spans.(i)
  done;
  self

(** Mark the spans named in [names] of the statement rooted at span
    index [root] as skipped by the engine's own path. *)
let mark_off_path t ~root names =
  for i = root + 1 to t.n - 1 do
    let s = t.spans.(i) in
    if s.parent = root && List.mem s.name names then s.off_path <- true
  done

(** Write every span, one per line, tab-separated under a header line
    (times in microseconds from the first span's start). *)
let write t path =
  let oc = open_out path in
  let t0 = if t.n > 0 then t.spans.(0).start else 0.0 in
  let us x = (x -. t0) *. 1e6 in
  output_string oc "id\tname\tstmt\tparent\tstart_us\tend_us\toff_path\n";
  for i = 0 to t.n - 1 do
    let s = t.spans.(i) in
    Printf.fprintf oc "%d\t%s\t%d\t%d\t%.1f\t%.1f\t%b\n" i s.name s.stmt s.parent (us s.start)
      (us s.stop) s.off_path
  done;
  close_out oc
