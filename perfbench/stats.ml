(** Order statistics for latency samples.

    Percentiles use the nearest-rank definition: the [p]-th percentile
    of [n] sorted samples is the sample at 1-based rank [ceil (p/100 * n)].
    A tail percentile is only reported as trustworthy when at least
    {!min_beyond} samples lie strictly beyond its rank. *)

(** Samples a tail percentile needs beyond its rank. *)
let min_beyond = 10

let rank ~p n =
  if n <= 0 then invalid_arg "Stats.rank: no samples";
  if p <= 0.0 || p > 100.0 then invalid_arg "Stats.rank: p outside (0, 100]";
  (* The epsilon keeps p*n/100 from rounding up past an exact rank
     (0.99 * 1000 is 990.0000000000001 in floating point). *)
  max 1 (min n (int_of_float (Float.ceil ((p *. float_of_int n /. 100.0) -. 1e-9))))

(** Samples lying beyond the [p]-th percentile's rank. *)
let samples_beyond ~p n = n - rank ~p n

(** Whether [n] samples support a [p]-th percentile with at least
    {!min_beyond} samples beyond it. *)
let tail_ok ~p n = n > 0 && samples_beyond ~p n >= min_beyond

let sorted (xs : float array) =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(** [percentile ~p xs]; raises on an empty sample. *)
let percentile ~p (xs : float array) =
  let a = sorted xs in
  a.(rank ~p (Array.length a) - 1)

let median xs = percentile ~p:50.0 xs

let sum (xs : float array) = Array.fold_left ( +. ) 0.0 xs

(** A growable float sample. *)
module Sample = struct
  type t = { mutable data : float array; mutable len : int }

  let create () = { data = Array.make 256 0.0; len = 0 }

  let add t x =
    if t.len = Array.length t.data then begin
      let d = Array.make (2 * t.len) 0.0 in
      Array.blit t.data 0 d 0 t.len;
      t.data <- d
    end;
    t.data.(t.len) <- x;
    t.len <- t.len + 1

  let length t = t.len
  let to_array t = Array.sub t.data 0 t.len
end
