(* Unit tests of the benchmark's statistics helpers against sort-based
   references.  Exits non-zero on the first mismatch. *)

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

(* nearest rank by the textbook definition: sort, take index
   ceil(p/100 * n) - 1, computed in exact rational arithmetic *)
let reference_percentile samples p =
  let a = Array.copy samples in
  Array.sort compare a;
  let n = Array.length a in
  let rank = ref 1 in
  while !rank * 100 < p * n do incr rank done;
  a.(!rank - 1)

let () =
  let rng = Dpoaf_util.Rng.create 7 in
  for trial = 1 to 400 do
    let n = 1 + Dpoaf_util.Rng.int rng 300 in
    (* a small value range forces many ties, which is where a select
       with a wrong partition step goes astray *)
    let range = if trial mod 2 = 0 then 5 else 1_000_000 in
    let samples =
      Array.init n (fun _ -> float_of_int (Dpoaf_util.Rng.int rng range))
    in
    let before = Array.copy samples in
    List.iter
      (fun p ->
        check
          (Printf.sprintf "percentile trial=%d n=%d p=%d" trial n p)
          (Timing.percentile samples p = reference_percentile samples p))
      [ 1; 25; 50; 75; 90; 99; 100 ];
    check "percentile leaves its input untouched" (samples = before)
  done;
  (* nearest rank on 1..100: p-th percentile is exactly p, with no
     floating-point rounding pushing 99% of 100 to rank 100 *)
  let hundred = Array.init 100 (fun i -> float_of_int (100 - i)) in
  List.iter
    (fun p ->
      check (Printf.sprintf "p%d of 1..100" p)
        (Timing.percentile hundred p = float_of_int p))
    [ 1; 50; 99; 100 ];
  check "median of one" (Timing.median [| 3.5 |] = 3.5);
  check "empty rejected"
    (match Timing.percentile [||] 50 with
    | _ -> false
    | exception Invalid_argument _ -> true);
  check "p=0 rejected"
    (match Timing.percentile [| 1.0 |] 0 with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* Sliced percentiles against the definition: sort-based percentiles of
   seven equal consecutive slices, then the middle one.  A burst of slow
   samples confined to one slice leaves the result where it was. *)
let () =
  let rng = Dpoaf_util.Rng.create 11 in
  for trial = 1 to 100 do
    let n = 1 + Dpoaf_util.Rng.int rng 3000 in
    let samples =
      Array.init n (fun _ -> float_of_int (Dpoaf_util.Rng.int rng 100_000))
    in
    let expected =
      if n < 700 then reference_percentile samples 99
      else begin
        let slice k = Array.sub samples (k * n / 7) (((k + 1) * n / 7) - (k * n / 7)) in
        let tails = Array.init 7 (fun k -> reference_percentile (slice k) 99) in
        Array.sort compare tails;
        tails.(3)
      end
    in
    check
      (Printf.sprintf "sliced p99 trial=%d n=%d" trial n)
      (Timing.sliced_percentile samples 99 = expected)
  done;
  let calm = Array.init 1400 (fun i -> float_of_int (i mod 200)) in
  let stalled = Array.copy calm in
  Array.fill stalled 300 40 1000.0;
  check "a stall in one slice moves the whole-run p99"
    (Timing.percentile stalled 99 = 1000.0);
  check "a stall in one slice leaves the sliced p99"
    (Timing.sliced_percentile stalled 99 = Timing.sliced_percentile calm 99)

(* the clock and the interval helper *)
let () =
  let close a b = Float.abs (a -. b) < 1e-6 in
  check "ms_between"
    (close (Timing.ms_between 5_000_000L 7_500_000L) 2.5);
  (* the clock never runs backwards *)
  let a = Timing.now_ns () in
  let b = Timing.now_ns () in
  check "monotonic" (Int64.compare b a >= 0)

(* Self time: a parent's duration minus the union of its children's
   intervals, clipped to the parent -- overlapping children (spans from
   two domains) count once, a child running past its parent only up to
   the parent's end. *)
let () =
  let span id parent t0 t1 =
    { Spans.id; parent; req = 0; name = "s"; t0 = Int64.of_int (t0 * 1_000_000);
      t1 = Int64.of_int (t1 * 1_000_000) }
  in
  let spans =
    [ span 0 (-1) 0 100; span 1 0 10 30; span 2 0 20 50; span 3 0 90 120;
      span 4 1 12 14 ]
  in
  let self = Spans.self_ms spans in
  let close a b = Float.abs (a -. b) < 1e-9 in
  (* children cover [10,50] and [90,100]: 50 of the parent's 100 ms *)
  check "self of the parent" (close (Hashtbl.find self 0) 50.0);
  check "self of a child with a grandchild" (close (Hashtbl.find self 1) 18.0);
  check "self of a leaf" (close (Hashtbl.find self 3) 30.0)

let () =
  if !failures > 0 then begin
    Printf.printf "%d failure(s)\n" !failures;
    exit 1
  end;
  print_endline "timing helpers: all checks passed"
