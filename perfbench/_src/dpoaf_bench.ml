(* The DPO-AF benchmark runner.

     dpoaf_bench --workload NAME --seed N --seconds S --trace 0|1

   runs one workload in this process and prints, as its last line, one
   JSON object with [correct], [attempted], [failed] and [metrics]: the
   end-to-end metrics with --trace 0, the per-layer metrics with
   --trace 1.  See README.md. *)

open Common

let workloads =
  [
    ("verify_cold", (W_verify.run, fun () -> ignore (W_verify.setup ())));
    ("finetune", (W_finetune.run, fun () -> ignore (W_finetune.setup ())));
    ("spec_audit", (W_audit.run, fun () -> ignore (W_audit.setup ())));
    ("serve_replay", (W_serve.run_replay, fun () -> ignore (W_serve.replay_setup ())));
  ]

(* The per-layer metrics (name, unit) listed in BENCHMARK.json, which the
   runner reads from the checkout root.  A workload that never enters a
   layer reports it as 0. *)
let per_layer () =
  let module J = Dpoaf_util.Json in
  let field k j = Option.get (J.member k j) in
  J.parse_exn (Common.read_file "BENCHMARK.json")
  |> field "per_layer" |> J.to_list |> Option.get
  |> List.map (fun m ->
         ( Option.get (J.to_str (field "name" m)),
           Option.get (J.to_str (field "unit" m)) ))

let usage () =
  prerr_endline
    "usage: dpoaf_bench --workload NAME --seed N --seconds S --trace 0|1";
  exit 2

let parse argv =
  let get key =
    let rec go = function
      | k :: v :: _ when k = key -> Some v
      | _ :: rest -> go rest
      | [] -> None
    in
    go (Array.to_list argv)
  in
  match (get "--workload", get "--seed", get "--seconds", get "--trace") with
  | Some workload, Some seed, Some seconds, Some trace -> (
      match
        (int_of_string_opt seed, float_of_string_opt seconds, trace)
      with
      | Some seed, Some seconds, ("0" | "1") when seconds > 0.0 ->
          { workload; seed; seconds; trace = trace = "1" }
      | _ -> usage ())
  | _ -> usage ()

let () =
  match Array.to_list Sys.argv with
  | [ _; flag; workload ] when flag = setup_only_flag ->
      let t0 = Timing.now_ns () in
      (snd (List.assoc workload workloads)) ();
      Printf.printf "%.9f\n%!" (Timing.ms_between t0 (Timing.now_ns ()) /. 1000.0)
  | _ -> (
      let a = parse Sys.argv in
      match List.assoc_opt a.workload workloads with
      | None ->
          Printf.eprintf "unknown workload %S (valid: %s)\n" a.workload
            (String.concat ", " (List.map fst workloads));
          exit 2
      | Some (run, _) ->
          let o = run a in
          let metrics =
            if not a.trace then o.metrics
            else begin
              List.iter
                (fun d -> if not (Sys.file_exists d) then Sys.mkdir d 0o755)
                [ Filename.dirname out_dir; out_dir ];
              Spans.write_jsonl
                (Filename.concat out_dir
                   (Printf.sprintf "spans-%s-%d.jsonl" a.workload a.seed));
              List.map
                (fun (name, unit) ->
                  match List.find_opt (fun m -> m.name = name) o.metrics with
                  | Some m -> m
                  | None -> metric name unit 0.0)
                (per_layer ())
            end
          in
          let correct = o.failed = 0 in
          print_result ~correct { o with metrics };
          if not correct then exit 1)
