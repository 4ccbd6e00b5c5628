(* The 64-bit state lives in an 8-byte buffer read and written with the
   unboxed bytes primitives: a [mutable state : int64] field would box a
   fresh Int64 on every draw (no flambda to unbox it). The draw helpers
   are inlined, so [int], [bool] and [bernoulli] allocate nothing and
   [float] only its boxed result. *)
type t = Bytes.t

external get_state : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set_state : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state s =
  let t = Bytes.create 8 in
  set_state t 0 s;
  t

let create ~seed = of_state (Int64.of_int seed)

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] next t =
  let s = Int64.add (get_state t 0) golden_gamma in
  set_state t 0 s;
  mix s

let bits64 t = next t

let split t = of_state (mix (next t))

let copy t = Bytes.copy t

(* [max_int] as an int64: the low 62 bits of a draw. *)
let int_mask = 0x3FFFFFFFFFFFFFFFL

let[@inline] int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  Int64.to_int (Int64.logand (next t) int_mask) mod bound

let int_in t lo hi =
  if hi < lo then invalid_arg "Prng.int_in: empty range";
  lo + int t (hi - lo + 1)

let[@inline] float t bound =
  (* 53 random bits scaled into [0, 1). *)
  let v = Int64.to_float (Int64.shift_right_logical (next t) 11) in
  bound *. (v /. 9007199254740992.0)

let bool t = Int64.logand (next t) 1L = 1L

let[@inline] bernoulli t p = float t 1.0 < p

let pick t arr =
  if Array.length arr = 0 then invalid_arg "Prng.pick: empty array";
  arr.(int t (Array.length arr))

let pick_list t l =
  match l with
  | [] -> invalid_arg "Prng.pick_list: empty list"
  | _ -> List.nth l (int t (List.length l))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

(* A Fisher-Yates shuffle of [0, n) cut to its first [k] entries, drawing
   exactly what [shuffle] would: every caller's later draws depend on it.
   Splitmix draws are random access — the one for step [i] (taken after
   [n - 1 - i] others) comes from the state [n - i] gammas on — so each of
   the [k] positions is traced back through the swaps, last swap first,
   without an [n]-entry array, and the state then moves past all [n - 1]
   draws. *)
let sample_without_replacement t k n =
  if k > n then invalid_arg "Prng.sample_without_replacement: k > n";
  let s0 = get_state t 0 in
  let pos = Array.init k Fun.id in
  if k > 0 then
    for i = 1 to n - 1 do
      let s = Int64.add s0 (Int64.mul (Int64.of_int (n - i)) golden_gamma) in
      let j = Int64.to_int (Int64.logand (mix s) int_mask) mod (i + 1) in
      for p = 0 to k - 1 do
        let x = pos.(p) in
        if x = i then pos.(p) <- j else if x = j then pos.(p) <- i
      done
    done;
  set_state t 0 (Int64.add s0 (Int64.mul (Int64.of_int (max 0 (n - 1))) golden_gamma));
  Array.to_list pos

let exponential t ~mean =
  let u = 1.0 -. float t 1.0 in
  -. mean *. log u

let geometric t ~p =
  (* Total over all float inputs, always consuming exactly one draw, so a
     malformed parameter can neither raise nor desynchronise the stream:
     NaN and p >= 1 degenerate to the point mass at 0; p <= 0 clamps to a
     tiny success probability (log 1.0 = 0 would otherwise divide by
     zero); a non-finite or negative quotient clamps to 0 and an
     overflowing one to max_int. *)
  let p = if Float.is_nan p then 1.0 else Float.min 1.0 (Float.max 1e-12 p) in
  let u = 1.0 -. float t 1.0 in
  if p >= 1.0 then 0
  else
    let x = Float.floor (log u /. log (1.0 -. p)) in
    if Float.is_nan x || x < 0.0 then 0
    else if x >= float_of_int max_int then max_int
    else int_of_float x
