(* serve_replay: the serving path on a seeded traffic of generate,
   verify, score_pair and refine lines across all three packs.

   Each op decodes one line with Protocol.request_of_string, runs
   Engine.handle and encodes the reply with Protocol.response_to_string,
   all on this domain, one line after the other: no thread hand-off sits
   inside an op, so its latency is the codec's and the engine's work.
   The traced pass sends the lines through the in-process Router and a
   continuous-batching Server with one worker, one request in flight at a
   time, so that the scheduler's queue wait is measured too. *)

open Common
module Domain = Dpoaf_domain.Domain
module Corpus = Dpoaf_pipeline.Corpus
module P = Dpoaf_serve.Protocol
module Engine = Dpoaf_serve.Engine
module Server = Dpoaf_serve.Server
module Router = Dpoaf_serve.Router
module Rng = Dpoaf_util.Rng

(* ---------------- traffic ---------------- *)

(* untimed lines answered before the timed pass *)
let warmup_lines = 600
let pretrain_seed = 2024

(* Verify, score_pair and refine steps come, with repetition, from a
   bounded pool per task.  The warm-up draws from the same pools (in
   another order), so nearly every verify hits the profile cache; cold
   verifications come from fresh generate samples and refine re-samples. *)
let pool_per_task = 6

let steps_for rng pack task =
  let pool = Rng.shuffle_list rng (Domain.candidate_steps pack task) in
  let n = 2 + Rng.int rng 3 in
  List.filteri (fun i _ -> i < n) pool

let kind_name = function
  | P.Generate _ -> "generate"
  | P.Verify _ -> "verify"
  | P.Score_pair _ -> "score_pair"
  | P.Refine _ -> "refine"
  | P.Stats _ -> "stats"
  | P.Health _ -> "health"

(* per pack, per task: the bounded response pool verify, score_pair
   and refine requests draw their steps from *)
let pools seed =
  let rng = Rng.create seed in
  Array.of_list
    (List.map
       (fun pack ->
         List.map
           (fun (t : Domain.task) ->
             (t, Array.init pool_per_task (fun _ -> steps_for rng pack t)))
           (Domain.tasks pack)
         |> Array.of_list)
       (Dpoaf_domain.all ()))

let traffic ~pools ~seed ~prefix ~n =
  let rng = Rng.create seed in
  let packs = Array.of_list (Dpoaf_domain.all ()) in
  (* Requests come in blocks of 30 -- per pack three generates, four
     verifies, two score_pairs and one refine -- each block in a seeded
     order, so every run carries the same mix and only the contents vary
     with the seed. *)
  let slots =
    Array.concat
      (List.init (Array.length packs) (fun p ->
           Array.map (fun k -> (p, k))
             [| `Generate; `Generate; `Generate; `Verify; `Verify; `Verify; `Verify;
                `Score_pair; `Score_pair; `Refine |]))
  in
  let order = Array.copy slots in
  let reqs =
    Array.init n (fun i ->
        let b = Array.length slots in
        if i mod b = 0 then begin
          Array.blit slots 0 order 0 b;
          Rng.shuffle rng order
        end;
        let p, k = order.(i mod b) in
        let domain = Some (Domain.name packs.(p)) in
        let task, pool = Rng.choice rng pools.(p) in
        let from_pool () = Rng.choice rng pool in
        let kind =
          match k with
          | `Generate ->
              P.Generate
                { task = task.Domain.id; seed = Rng.int rng 1_000_000; temperature = 1.0;
                  domain }
          | `Verify ->
              P.Verify
                { steps = from_pool (); scenario = None; domain;
                  explain = Rng.bool rng 0.25 }
          | `Score_pair ->
              let a = from_pool () in
              P.Score_pair
                { steps_a = a; steps_b = from_pool (); scenario = None; domain;
                  explain = false }
          | `Refine ->
              P.Refine
                { task = task.Domain.id; steps = from_pool ();
                  seed = Rng.int rng 1_000_000; scenario = None; domain;
                  explain = false; max_rounds = Some 2; attempts = Some 2 }
        in
        { P.id = Printf.sprintf "%s%05d" prefix i; kind; deadline_ms = None })
  in
  Array.map P.request_to_string reqs

(* responses compared with their timing fields zeroed *)
let normalized (r : P.response) =
  P.response_to_string { r with P.queue_wait_us = 0.0; execute_us = 0.0 }

(* ---------------- the in-process reference ---------------- *)

let packs_for_engine () =
  List.map
    (fun domain ->
      let corpus = Corpus.build ~domain () in
      (Some (Corpus.pretrained_model (Rng.create pretrain_seed) corpus), corpus))
    (Dpoaf_domain.all ())

(* what `dpoaf_cli serve` builds for one shard *)
let engine packs = Engine.create_multi ~prompt_cache_capacity:256 packs

let expected engine line =
  match P.request_of_string line with
  | Error e -> failwith ("benchmark produced an unparseable line: " ^ e)
  | Ok req ->
      normalized
        { P.rid = req.P.id; rbody = Engine.handle engine req; queue_wait_us = 0.0;
          execute_us = 0.0 }

(* per reply to the first [upto] lines: ok, and byte-equal to the
   reference answer.  The reference engine answers the lines last to
   first, so its caches hold different entries at every request: a reply
   that depended on cache state would differ. *)
let count_failed ~upto engine lines (replies : string option array) =
  let failed = ref 0 in
  for i = upto - 1 downto 0 do
    let good =
      match replies.(i) with
      | None -> false
      | Some reply -> (
          match P.response_of_string reply with
          | Error _ -> false
          | Ok r ->
              P.status_of_body r.P.rbody = "ok"
              && normalized r = expected engine lines.(i))
    in
    if not good then incr failed
  done;
  !failed

(* ---------------- the workload ---------------- *)

let replay_setup () = engine (packs_for_engine ())

(* A pass answers this many lines or runs for --seconds, whichever ends
   first.  Replies feed the caches, so the more lines a pass answers the
   more of the later ones hit; a fixed count keeps a fast and a slow run
   doing the same work instead of letting machine speed feed back into
   the hit ratio (with time alone, ops_per_s spread 0.16 over ten runs). *)
let replay_ops = 20_000

let decode line =
  match Spans.with_span "serve.decode" (fun () -> P.request_of_string line) with
  | Ok r -> r
  | Error e -> failwith ("benchmark produced an unparseable line: " ^ e)

let encode (r : P.response) =
  Spans.with_span "serve.encode" (fun () -> P.response_to_string r)

(* the untraced op: decode, handle and encode on this domain *)
let answer eng line =
  let req = decode line in
  encode
    { P.rid = req.P.id; rbody = Engine.handle eng req; queue_wait_us = 0.0;
      execute_us = 0.0 }

(* The traced pass: lines [first], [first + 1], ... go through
   Router.submit to a Server with one continuous-batching worker, one
   request in flight at a time.  The handler wraps Engine.handle in a
   span per verb, parented to the client's dispatch span; the queue wait
   runs from submission to the handler's start.  Spans record on odd ops
   only, so that the even ops give the untraced rate of the same path at
   the same point of the run (the caches keep warming, so a later pass
   would not be a fair reference). *)
let traced_pass eng ~seconds ~first lines replies =
  let submitted = Array.make replay_ops 0L and started = Array.make replay_ops 0L in
  (* the op in flight and its dispatch span, read by the worker *)
  let current = Atomic.make (0, -1) in
  let handler (req : P.request) =
    let i, parent = Atomic.get current in
    started.(i) <- Timing.now_ns ();
    Spans.with_span ~parent ~req:(first + i) ("serve.execute." ^ kind_name req.P.kind)
      (fun () -> Engine.handle eng req)
  in
  let server =
    Server.create
      ~config:{ Server.default_config with Server.jobs = 1 }
      ~batching:`Continuous ~handler ()
  in
  let router = Router.create [| server |] in
  let op i =
    let j = first + i in
    Spans.set_enabled (i mod 2 = 1);
    Spans.with_span ~parent:(-1) ~req:j "op" (fun () ->
        let req = decode lines.(j) in
        let resp =
          Spans.with_span "serve.dispatch" (fun () ->
              Atomic.set current (i, Spans.current ());
              submitted.(i) <- Timing.now_ns ();
              Router.submit router req)
        in
        replies.(j) <- Some (encode resp))
  in
  let timed =
    Fun.protect
      ~finally:(fun () ->
        Spans.set_enabled false;
        Router.drain router)
      (fun () -> timed_loop ~seconds ~max_ops:replay_ops op)
  in
  let n = Array.length timed.lat_ms in
  (timed, Array.init n (fun i -> Timing.ms_between submitted.(i) started.(i)))

let run_replay (a : args) =
  let eng, setup_s = timed_setup ~workload:a.workload replay_setup in
  let pools = pools a.seed in
  (* warm-up: another seed's traffic over the same pools, untimed *)
  Array.iter
    (fun line -> ignore (answer eng line))
    (traffic ~pools ~seed:(a.seed + 7919) ~prefix:"w" ~n:warmup_lines);
  let n_lines = if a.trace then 2 * replay_ops else replay_ops in
  let lines = traffic ~pools ~seed:a.seed ~prefix:"r" ~n:n_lines in
  let replies = Array.make n_lines None in
  let untraced =
    timed_loop ~seconds:a.seconds ~max_ops:replay_ops (fun i ->
        replies.(i) <- Some (answer eng lines.(i)))
  in
  let n0 = Array.length untraced.lat_ms in
  let metrics, used =
    if not a.trace then (end_to_end ~setup_s untraced, n0)
    else begin
      let domains = Engine.domains eng in
      let prompt_caches = List.map (fun d -> "serve.prompt_state." ^ d) domains in
      let profile_caches = List.map profile_cache domains in
      let p0 = cache_counts prompt_caches and d0 = cache_counts profile_caches in
      let traced, queue_wait = traced_pass eng ~seconds:a.seconds ~first:n0 lines replies in
      let p1 = cache_counts prompt_caches and d1 = cache_counts profile_caches in
      let n1 = Array.length traced.lat_ms in
      let traced_ops = List.init n1 (fun i -> n0 + i) in
      (* A refine costs over a hundred times a verify, and refines vary
         widely, so the two rates weigh each verb's median latency by its
         share of the pass; a plain mean would read a few more slow
         refines among the odd ops as tracing overhead. *)
      let kinds =
        Array.init n1 (fun i ->
            match P.request_of_string lines.(n0 + i) with
            | Ok r -> kind_name r.P.kind
            | Error e -> failwith e)
      in
      let rate_of parity =
        let ms =
          List.fold_left
            (fun acc k ->
              let of_kind = List.filter (fun i -> kinds.(i) = k) (List.init n1 Fun.id) in
              let lat =
                List.filter (fun i -> i mod 2 = parity) of_kind
                |> List.map (fun i -> traced.lat_ms.(i))
                |> Array.of_list
              in
              acc
              +. (float_of_int (List.length of_kind) /. float_of_int n1 *. Timing.median lat))
            0.0
            (List.sort_uniq compare (Array.to_list kinds))
        in
        1000.0 /. ms
      in
      let spans = Spans.all () in
      let self = self_by_name spans in
      let ms name = p50_or_zero (self name) in
      (* per refine op: its execute time and its round count *)
      let refines =
        List.filter_map
          (fun (sp : Spans.span) ->
            if sp.Spans.name <> "serve.execute.refine" then None
            else
              match Option.map P.response_of_string replies.(sp.Spans.req) with
              | Some (Ok { P.rbody = P.Refined { rounds; _ }; _ }) ->
                  Some (Spans.dur_ms sp, List.length rounds)
              | _ -> None)
          spans
      in
      (* the explainer, timed apart on the traced verifies that asked for it *)
      let explain_us =
        Array.of_list
          (List.filter_map
             (fun j ->
               match P.request_of_string lines.(j) with
               | Ok { P.kind = P.Verify { steps; domain = Some d; explain = true; _ }; _ }
                 ->
                   let t0 = Timing.now_ns () in
                   ignore (Domain.explain_steps (Dpoaf_domain.find_exn d) steps);
                   Some (1000.0 *. Timing.ms_between t0 (Timing.now_ns ()))
               | _ -> None)
             traced_ops)
      in
      ( [
          metric "serve.decode_us" "us" (1000.0 *. ms "serve.decode");
          metric "serve.encode_us" "us" (1000.0 *. ms "serve.encode");
          metric "serve.queue_wait_ms.p50" "ms" (p50_or_zero queue_wait);
          metric "serve.queue_wait_ms.p99" "ms" (p99_or_zero queue_wait);
          metric "serve.execute_ms.generate" "ms" (ms "serve.execute.generate");
          metric "serve.execute_ms.verify" "ms" (ms "serve.execute.verify");
          metric "serve.execute_ms.score_pair" "ms" (ms "serve.execute.score_pair");
          metric "serve.execute_ms.refine" "ms" (ms "serve.execute.refine");
          metric "serve.prompt_cache_hit_ratio" "ratio" (hit_ratio p0 p1);
          metric "domain.profile_hit_ratio" "ratio" (hit_ratio d0 d1);
          metric "refine.rounds_per_request" "count"
            (Timing.mean (Array.of_list (List.map (fun (_, r) -> float_of_int r) refines)));
          metric "refine.round_ms" "ms"
            (p50_or_zero
               (Array.of_list
                  (List.map (fun (d, r) -> d /. float_of_int (max 1 r)) refines)));
          metric "analysis.explain_us" "us" (p50_or_zero explain_us);
        ]
        @ gc_metrics ~ops:n1 ~alloc_mb:traced.alloc_mb ~majors:traced.majors
        @ trace_accounting ~op_name:"op" ~untraced_ops_per_s:(rate_of 0)
            ~traced_ops_per_s:(rate_of 1) spans,
        n0 + n1 )
    end
  in
  let reference = engine (packs_for_engine ()) in
  let failed = count_failed ~upto:used reference lines replies in
  { attempted = used; failed; metrics }
