let now_ns () = Monotonic_clock.now ()
let ms_between t0 t1 = Int64.to_float (Int64.sub t1 t0) /. 1e6

(* Hoare's quickselect with a middle pivot: after the call, a.(k) holds
   the element of rank k and everything left of it is <= it. *)
let rec select a lo hi k =
  if lo < hi then begin
    let pivot = a.((lo + hi) / 2) in
    let i = ref lo and j = ref hi in
    while !i <= !j do
      while a.(!i) < pivot do incr i done;
      while a.(!j) > pivot do decr j done;
      if !i <= !j then begin
        let t = a.(!i) in
        a.(!i) <- a.(!j);
        a.(!j) <- t;
        incr i;
        decr j
      end
    done;
    if k <= !j then select a lo !j k else if k >= !i then select a !i hi k
  end

let percentile samples p =
  let n = Array.length samples in
  if n = 0 then invalid_arg "Timing.percentile: no samples";
  if p < 1 || p > 100 then invalid_arg "Timing.percentile: p outside 1..100";
  (* nearest rank ceil(p n / 100), in integers so 99% of 100 is rank 99 *)
  let rank = ((p * n) + 99) / 100 in
  let a = Array.copy samples in
  select a 0 (n - 1) (rank - 1);
  a.(rank - 1)

let median samples = percentile samples 50

let slices = 7

let sliced_percentile samples p =
  let n = Array.length samples in
  if n < 100 * slices then percentile samples p
  else
    median
      (Array.init slices (fun k ->
           let lo = k * n / slices and hi = (k + 1) * n / slices in
           percentile (Array.sub samples lo (hi - lo)) p))

let mean samples =
  let n = Array.length samples in
  if n = 0 then 0.0 else Array.fold_left ( +. ) 0.0 samples /. float_of_int n
