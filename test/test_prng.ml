(* Tests for Sim.Prng: determinism, ranges, splitting, sampling. *)

open Sim

let check = Alcotest.check
let bool_c = Alcotest.bool
let int_c = Alcotest.int

let test_determinism () =
  let a = Prng.create ~seed:123 and b = Prng.create ~seed:123 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_different_seeds () =
  let a = Prng.create ~seed:1 and b = Prng.create ~seed:2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Int64.equal (Prng.bits64 a) (Prng.bits64 b) then incr same
  done;
  check bool_c "streams differ" true (!same < 4)

let test_copy () =
  let a = Prng.create ~seed:7 in
  ignore (Prng.bits64 a);
  let b = Prng.copy a in
  check Alcotest.int64 "copy continues identically" (Prng.bits64 a) (Prng.bits64 b)

let test_split_independence () =
  let a = Prng.create ~seed:99 in
  let b = Prng.split a in
  (* Drawing from the parent after the split must not change the child's
     stream relative to a fresh identical split. *)
  let a2 = Prng.create ~seed:99 in
  let b2 = Prng.split a2 in
  ignore (Prng.bits64 a2);
  check Alcotest.int64 "child stream is self-contained" (Prng.bits64 b) (Prng.bits64 b2)

let test_int_range () =
  let rng = Prng.create ~seed:5 in
  for _ = 1 to 1000 do
    let v = Prng.int rng 17 in
    check bool_c "in range" true (v >= 0 && v < 17)
  done

let test_int_rejects_nonpositive () =
  let rng = Prng.create ~seed:5 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int rng 0))

let test_int_in () =
  let rng = Prng.create ~seed:6 in
  let seen = Array.make 5 false in
  for _ = 1 to 500 do
    let v = Prng.int_in rng 3 7 in
    check bool_c "in [3,7]" true (v >= 3 && v <= 7);
    seen.(v - 3) <- true
  done;
  check bool_c "all values hit" true (Array.for_all Fun.id seen)

let test_float_range () =
  let rng = Prng.create ~seed:8 in
  for _ = 1 to 1000 do
    let v = Prng.float rng 2.5 in
    check bool_c "in [0, 2.5)" true (v >= 0.0 && v < 2.5)
  done

let test_bernoulli_extremes () =
  let rng = Prng.create ~seed:9 in
  for _ = 1 to 100 do
    check bool_c "p=0 never" false (Prng.bernoulli rng 0.0)
  done;
  for _ = 1 to 100 do
    check bool_c "p=1 always" true (Prng.bernoulli rng 1.0)
  done

let test_bernoulli_rate () =
  let rng = Prng.create ~seed:10 in
  let hits = ref 0 in
  let n = 10_000 in
  for _ = 1 to n do
    if Prng.bernoulli rng 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  check bool_c "rate near 0.3" true (rate > 0.25 && rate < 0.35)

let test_pick () =
  let rng = Prng.create ~seed:11 in
  let arr = [| 10; 20; 30 |] in
  for _ = 1 to 100 do
    check bool_c "member" true (Array.exists (( = ) (Prng.pick rng arr)) arr)
  done;
  Alcotest.check_raises "empty" (Invalid_argument "Prng.pick: empty array") (fun () ->
      ignore (Prng.pick rng [||]))

let test_shuffle_is_permutation () =
  let rng = Prng.create ~seed:12 in
  let arr = Array.init 50 Fun.id in
  Prng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  check (Alcotest.array int_c) "same elements" (Array.init 50 Fun.id) sorted

let test_sample_without_replacement () =
  let rng = Prng.create ~seed:13 in
  let s = Prng.sample_without_replacement rng 10 30 in
  check int_c "size" 10 (List.length s);
  check int_c "distinct" 10 (List.length (List.sort_uniq compare s));
  List.iter (fun v -> check bool_c "in range" true (v >= 0 && v < 30)) s;
  Alcotest.check_raises "k > n" (Invalid_argument "Prng.sample_without_replacement: k > n")
    (fun () -> ignore (Prng.sample_without_replacement rng 5 3))

let test_exponential () =
  let rng = Prng.create ~seed:14 in
  let n = 10_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    let v = Prng.exponential rng ~mean:50.0 in
    Alcotest.check bool_c "positive" true (v >= 0.0);
    sum := !sum +. v
  done;
  let mean = !sum /. float_of_int n in
  check bool_c "mean near 50" true (mean > 45.0 && mean < 55.0)

let test_geometric () =
  let rng = Prng.create ~seed:15 in
  check int_c "p=1 is 0" 0 (Prng.geometric rng ~p:1.0);
  for _ = 1 to 100 do
    check bool_c "non-negative" true (Prng.geometric rng ~p:0.3 >= 0)
  done

let test_geometric_edge_cases () =
  (* Malformed parameters must neither raise nor go negative: NaN and
     p >= 1 are the point mass at 0, p <= 0 clamps to a tiny success
     probability instead of dividing by log 1.0 = 0. *)
  let rng = Prng.create ~seed:16 in
  check int_c "NaN is 0" 0 (Prng.geometric rng ~p:Float.nan);
  check int_c "p=2 is 0" 0 (Prng.geometric rng ~p:2.0);
  check int_c "p=+inf is 0" 0 (Prng.geometric rng ~p:Float.infinity);
  check bool_c "p=0 finite non-negative" true (Prng.geometric rng ~p:0.0 >= 0);
  check bool_c "p<0 finite non-negative" true (Prng.geometric rng ~p:(-5.0) >= 0);
  check bool_c "p=-inf finite non-negative" true
    (Prng.geometric rng ~p:Float.neg_infinity >= 0)

let test_geometric_consumes_one_draw () =
  (* Every call — degenerate parameters included — consumes exactly one
     uniform draw, so a bad p cannot desynchronise the stream relative to
     a run that drew a sane p at the same point. *)
  List.iter
    (fun p ->
      let a = Prng.create ~seed:17 and b = Prng.create ~seed:17 in
      ignore (Prng.geometric a ~p);
      ignore (Prng.float b 1.0);
      check int_c
        (Printf.sprintf "stream in sync after p=%h" p)
        (Prng.int a 1_000_000) (Prng.int b 1_000_000))
    [ 0.3; 1.0; 0.0; -1.0; 2.0; Float.nan; Float.infinity ]

let qcheck_geometric_total =
  QCheck.Test.make ~name:"geometric is total and non-negative for every p" ~count:500
    QCheck.(pair small_int float)
    (fun (seed, p) ->
      let rng = Prng.create ~seed in
      Prng.geometric rng ~p >= 0)

let qcheck_int_bounds =
  QCheck.Test.make ~name:"prng int stays in bounds" ~count:200
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let rng = Prng.create ~seed in
      let v = Prng.int rng bound in
      v >= 0 && v < bound)

(* The boxed-state splitmix64 the generator used before its state moved
   into an unboxed buffer, kept verbatim as the reference every draw must
   still match: workload catalogs, root streams and fault schedules all
   hang on this exact stream. *)
module Reference = struct
  type t = { mutable state : int64 }

  let golden_gamma = 0x9E3779B97F4A7C15L
  let create ~seed = { state = Int64.of_int seed }

  let mix z =
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let bits64 t =
    t.state <- Int64.add t.state golden_gamma;
    mix t.state

  let split t =
    let s = bits64 t in
    { state = mix s }

  let copy t = { state = t.state }

  let int t bound =
    if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
    let mask = Int64.of_int max_int in
    let v = Int64.to_int (Int64.logand (bits64 t) mask) in
    v mod bound

  let int_in t lo hi =
    if hi < lo then invalid_arg "Prng.int_in: empty range";
    lo + int t (hi - lo + 1)

  let float t bound =
    let v = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
    bound *. (v /. 9007199254740992.0)

  let bool t = Int64.logand (bits64 t) 1L = 1L
  let bernoulli t p = float t 1.0 < p

  let shuffle t arr =
    for i = Array.length arr - 1 downto 1 do
      let j = int t (i + 1) in
      let tmp = arr.(i) in
      arr.(i) <- arr.(j);
      arr.(j) <- tmp
    done

  let sample_without_replacement t k n =
    if k > n then invalid_arg "Prng.sample_without_replacement: k > n";
    let arr = Array.init n (fun i -> i) in
    shuffle t arr;
    Array.to_list (Array.sub arr 0 k)

  let exponential t ~mean =
    let u = 1.0 -. float t 1.0 in
    -.mean *. log u

  let geometric t ~p =
    let p = if Float.is_nan p then 1.0 else Float.min 1.0 (Float.max 1e-12 p) in
    let u = 1.0 -. float t 1.0 in
    if p >= 1.0 then 0
    else
      let x = Float.floor (log u /. log (1.0 -. p)) in
      if Float.is_nan x || x < 0.0 then 0
      else if x >= float_of_int max_int then max_int
      else int_of_float x
end

(* One draw of every kind on both generators; [true] iff they agree. The
   float results are compared bit for bit. *)
let same_draw op bound (a : Prng.t) (r : Reference.t) =
  let feq x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y) in
  match op with
  | 0 -> Int64.equal (Prng.bits64 a) (Reference.bits64 r)
  | 1 -> Prng.int a bound = Reference.int r bound
  | 2 -> Prng.int_in a (-bound) bound = Reference.int_in r (-bound) bound
  | 3 -> feq (Prng.float a (float_of_int bound)) (Reference.float r (float_of_int bound))
  | 4 -> Prng.bool a = Reference.bool r
  | 5 ->
      let p = float_of_int bound /. 1000.0 in
      Prng.bernoulli a p = Reference.bernoulli r p
  | 6 ->
      let x = Array.init bound Fun.id and y = Array.init bound Fun.id in
      Prng.shuffle a x;
      Reference.shuffle r y;
      x = y
  | 7 ->
      let k = bound mod 5 in
      Prng.sample_without_replacement a k bound = Reference.sample_without_replacement r k bound
  | 8 ->
      let n = bound mod 24 in
      Prng.sample_without_replacement a n n = Reference.sample_without_replacement r n n
  | 9 ->
      let mean = float_of_int bound in
      feq (Prng.exponential a ~mean) (Reference.exponential r ~mean)
  | 10 ->
      let p = float_of_int bound /. 1000.0 in
      Prng.geometric a ~p = Reference.geometric r ~p
  | _ ->
      Prng.sample_without_replacement a 0 bound = Reference.sample_without_replacement r 0 bound

let same_stream (a : Prng.t) (r : Reference.t) =
  List.for_all (fun _ -> Int64.equal (Prng.bits64 a) (Reference.bits64 r)) (List.init 8 Fun.id)

let qcheck_matches_reference =
  QCheck.Test.make ~name:"every draw matches the boxed reference generator" ~count:300
    QCheck.(pair int (small_list (pair (int_range 0 11) (int_range 1 300))))
    (fun (seed, ops) ->
      let a = Prng.create ~seed and r = Reference.create ~seed in
      List.for_all (fun (op, bound) -> same_draw op bound a r) ops
      && (* Split and copy hand out the same streams, and the parents
            continue identically afterwards. *)
      same_stream (Prng.split a) (Reference.split r)
      && same_stream (Prng.copy a) (Reference.copy r)
      && same_stream a r)

(* The draws the simulator makes per root, per branch and per message must
   not allocate: 10,000 of them may cost at most a few words in total
   (the [Gc.minor_words] readings themselves). *)
let test_draws_allocate_nothing () =
  let rng = Prng.create ~seed:3 in
  let sum = ref 0 and hits = ref 0 in
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    sum := !sum + Prng.int rng 1000;
    if Prng.bernoulli rng 0.5 then incr hits
  done;
  let words = Gc.minor_words () -. before in
  check bool_c (Printf.sprintf "%.0f words for 10,000 int + bernoulli draws" words) true
    (words <= 16.0);
  check bool_c "draws happened" true (!sum > 0 && !hits > 0)

let tests =
  [
    ( "prng",
      [
        Alcotest.test_case "determinism" `Quick test_determinism;
        Alcotest.test_case "different seeds" `Quick test_different_seeds;
        Alcotest.test_case "copy" `Quick test_copy;
        Alcotest.test_case "split independence" `Quick test_split_independence;
        Alcotest.test_case "int range" `Quick test_int_range;
        Alcotest.test_case "int rejects non-positive" `Quick test_int_rejects_nonpositive;
        Alcotest.test_case "int_in" `Quick test_int_in;
        Alcotest.test_case "float range" `Quick test_float_range;
        Alcotest.test_case "bernoulli extremes" `Quick test_bernoulli_extremes;
        Alcotest.test_case "bernoulli rate" `Quick test_bernoulli_rate;
        Alcotest.test_case "pick" `Quick test_pick;
        Alcotest.test_case "shuffle permutation" `Quick test_shuffle_is_permutation;
        Alcotest.test_case "sample without replacement" `Quick test_sample_without_replacement;
        Alcotest.test_case "exponential mean" `Quick test_exponential;
        Alcotest.test_case "geometric" `Quick test_geometric;
        Alcotest.test_case "geometric edge cases" `Quick test_geometric_edge_cases;
        Alcotest.test_case "geometric consumes one draw" `Quick
          test_geometric_consumes_one_draw;
        QCheck_alcotest.to_alcotest qcheck_int_bounds;
        QCheck_alcotest.to_alcotest qcheck_geometric_total;
        QCheck_alcotest.to_alcotest qcheck_matches_reference;
        Alcotest.test_case "draws allocate nothing" `Quick test_draws_allocate_nothing;
      ] );
  ]
