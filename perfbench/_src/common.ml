(* Shared plumbing of the workloads: the timed loop, process statistics,
   cold set-up in fresh processes, span summaries and the result line. *)

type metric = { name : string; value : float; unit : string }

let metric name unit value = { name; value; unit }

type outcome = {
  attempted : int;
  failed : int;
  metrics : metric list;
}

(* where traced runs leave their spans, relative to the checkout *)
let out_dir = Filename.concat ".bench_build" "spans"

type args = { workload : string; seed : int; seconds : float; trace : bool }

(* ---------------- process statistics ---------------- *)

(* whole contents; also right for /proc files, which report a length of 0 *)
let read_file path = In_channel.with_open_bin path In_channel.input_all

(* peak resident set (VmHWM) of this process, in MiB *)
let max_rss_mb () =
  let status = read_file "/proc/self/status" in
  let line =
    List.find
      (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
      (String.split_on_char '\n' status)
  in
  Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
      float_of_int kb /. 1024.0)

let self_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* ---------------- the timed loop ---------------- *)

type timed = {
  lat_ms : float array;  (** per-op latency, op order *)
  elapsed_s : float;
  cpu_s : float;
  alloc_mb : float;
  majors : int;
}

let allocated_mb () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words)
  *. float_of_int (Sys.word_size / 8)
  /. 1e6

(* Run [op 0], [op 1], ... until [seconds] have passed, after a full major
   GC, timing each op on the monotonic clock.  The op in progress at the
   deadline finishes and counts.  At most [max_ops] ops run. *)
let timed_loop ?(max_ops = max_int) ~seconds op =
  Gc.full_major ();
  let a0 = allocated_mb () and m0 = (Gc.quick_stat ()).Gc.major_collections in
  let c0 = self_cpu_s () in
  let t0 = Timing.now_ns () in
  let deadline = Int64.add t0 (Int64.of_float (seconds *. 1e9)) in
  let lats = ref [] in
  let n = ref 0 in
  while !n < max_ops && Int64.compare (Timing.now_ns ()) deadline < 0 do
    let a = Timing.now_ns () in
    op !n;
    let b = Timing.now_ns () in
    lats := Timing.ms_between a b :: !lats;
    incr n
  done;
  let t1 = Timing.now_ns () in
  {
    lat_ms = Array.of_list (List.rev !lats);
    elapsed_s = Timing.ms_between t0 t1 /. 1000.0;
    cpu_s = self_cpu_s () -. c0;
    alloc_mb = allocated_mb () -. a0;
    majors = (Gc.quick_stat ()).Gc.major_collections - m0;
  }

(* The end-to-end metrics every in-process workload reports. *)
let end_to_end ~setup_s (t : timed) =
  let ops = float_of_int (Array.length t.lat_ms) in
  [
    metric "setup_s" "s" setup_s;
    metric "ops_per_s" "op/s" (ops /. t.elapsed_s);
    metric "p50_ms" "ms" (Timing.percentile t.lat_ms 50);
    metric "p99_ms" "ms" (Timing.sliced_percentile t.lat_ms 99);
    metric "cpu_ms_per_op" "ms" (t.cpu_s *. 1000.0 /. ops);
    metric "max_rss_mb" "MiB" (max_rss_mb ());
  ]

let gc_metrics ~ops ~alloc_mb ~majors =
  let ops = float_of_int (max 1 ops) in
  [
    metric "gc.alloc_mb_per_op" "MB" (alloc_mb /. ops);
    metric "gc.major_per_kop" "count" (float_of_int majors *. 1000.0 /. ops);
  ]

(* ---------------- cold set-up ---------------- *)

(* In-process caches (tableaux, lexicons, generated rule books) make a
   second set-up in the same process nearly free, so the benchmark times
   set-up cold: once here and [extra] more times in fresh copies of this
   executable started with [--setup-only], and reports the median. *)
let setup_only_flag = "--setup-only"

let child_setup_s workload =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; setup_only_flag; workload |]
      Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let line = try input_line ic with End_of_file -> "" in
  close_in ic;
  (match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> failwith (Printf.sprintf "set-up child for %s failed" workload));
  match float_of_string_opt (String.trim line) with
  | Some s -> s
  | None -> failwith (Printf.sprintf "set-up child for %s printed %S" workload line)

let cold_setups = 7

(* [setup ()] returns its state; timed here, then [cold_setups - 1] more
   times in children. *)
let timed_setup ~workload setup =
  let t0 = Timing.now_ns () in
  let state = setup () in
  let own = Timing.ms_between t0 (Timing.now_ns ()) /. 1000.0 in
  let others = List.init (cold_setups - 1) (fun _ -> child_setup_s workload) in
  (state, Timing.median (Array.of_list (own :: others)))

(* ---------------- span summaries ---------------- *)

(* per-name self times, in ms, over the given spans *)
let self_by_name spans =
  let self = Spans.self_ms spans in
  let by = Hashtbl.create 64 in
  List.iter
    (fun (s : Spans.span) ->
      let v = Hashtbl.find self s.Spans.id in
      Hashtbl.replace by s.Spans.name
        (v :: Option.value (Hashtbl.find_opt by s.Spans.name) ~default:[]))
    spans;
  fun name ->
    Array.of_list (Option.value (Hashtbl.find_opt by name) ~default:[])

(* per op (request id): the summed duration of the spans called [name] *)
let per_op_ms spans name =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (s : Spans.span) ->
      if s.Spans.name = name then
        Hashtbl.replace tbl s.Spans.req
          (Spans.dur_ms s +. Option.value (Hashtbl.find_opt tbl s.Spans.req) ~default:0.0))
    spans;
  Array.of_seq (Hashtbl.to_seq_values tbl)

let p50_or_zero a = if Array.length a = 0 then 0.0 else Timing.median a
let p99_or_zero a = if Array.length a = 0 then 0.0 else Timing.percentile a 99

(* Trace accounting shared by every traced workload: how much of the ops'
   time no span accounts for, and how much slower the traced ops ran than
   the untraced ones of a reference pass. *)
let trace_accounting ~op_name ~untraced_ops_per_s ~traced_ops_per_s spans =
  let self = Spans.self_ms spans in
  let ops = List.filter (fun (s : Spans.span) -> s.Spans.name = op_name) spans in
  let total = List.fold_left (fun acc s -> acc +. Spans.dur_ms s) 0.0 ops in
  let unaccounted =
    List.fold_left (fun acc (s : Spans.span) -> acc +. Hashtbl.find self s.Spans.id) 0.0 ops
  in
  [
    metric "trace.unaccounted_share" "ratio"
      (if total > 0.0 then unaccounted /. total else 0.0);
    metric "trace.overhead_pct" "%"
      (if traced_ops_per_s > 0.0 then
         100.0 *. (untraced_ops_per_s -. traced_ops_per_s) /. untraced_ops_per_s
       else 0.0);
  ]

(* ---------------- output ---------------- *)

let json_float v =
  if not (Float.is_finite v) then failwith "a metric is not a finite number";
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let print_result ~correct (o : outcome) =
  let metrics =
    String.concat ", "
      (List.map
         (fun m ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
             (json_float m.value) m.unit)
         o.metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct o.attempted o.failed metrics

(* ---------------- cache statistics ---------------- *)

(* The profile cache of a pack, by pack name: the driving pack keeps its
   own (lib/driving/evaluate.ml), each generated pack one of its own
   (lib/domain/eval.ml). *)
let profile_cache = function
  | "driving" -> "evaluate.profile"
  | name -> "eval.profile." ^ name

(* summed (hits, misses) of the named Dpoaf_exec caches *)
let cache_counts names =
  let s = Dpoaf_exec.Metrics.summary () in
  let get k = Option.value (List.assoc_opt k s) ~default:0.0 in
  List.fold_left
    (fun (h, m) n ->
      (h +. get ("cache." ^ n ^ ".hits"), m +. get ("cache." ^ n ^ ".misses")))
    (0.0, 0.0) names

let hit_ratio (h0, m0) (h1, m1) =
  let h = h1 -. h0 and m = m1 -. m0 in
  if h +. m > 0.0 then h /. (h +. m) else 0.0
