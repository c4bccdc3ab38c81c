(* verify_cold: each op verifies three never-seen responses, one of each
   pack, through the pack's profile_of_steps, so every lookup misses the
   profile cache and runs GLM2FSA -> product -> per-spec emptiness ->
   vacuity. *)

open Common
module Domain = Dpoaf_domain.Domain
module Ltl = Dpoaf_logic.Ltl
module Symbol = Dpoaf_logic.Symbol
module Trace = Dpoaf_logic.Trace
module Kripke = Dpoaf_automata.Kripke
module Product = Dpoaf_automata.Product
module MC = Dpoaf_automata.Model_checker
module Buchi = Dpoaf_automata.Buchi
module Tableau = Dpoaf_automata.Tableau
module Vacuity = Dpoaf_analysis.Vacuity
module Rng = Dpoaf_util.Rng

(* Set-up: force every pack's rule book (generated books pass the
   analysis gates here), lexicon and universal model, and build the NBA
   of every negated spec by checking it once on a one-state structure;
   none of this touches the profile cache. *)
let setup () =
  let packs = Dpoaf_domain.all () in
  let sink =
    Kripke.make ~labels:[| Symbol.empty |] ~succs:[| [ 0 ] |] ~initial:[ 0 ] ()
  in
  List.iter
    (fun (module D : Domain.S) ->
      ignore (D.lexicon ());
      ignore (D.universal ());
      List.iter (fun (_, phi) -> ignore (MC.check_kripke sink phi)) (D.specs ()))
    packs;
  packs

(* A pack's step candidates, pooled over its tasks: every observation
   text and every final-step text, in first-seen order. *)
let candidates (module D : Domain.S) =
  let uniq l =
    List.fold_left (fun acc x -> if List.mem x acc then acc else x :: acc) [] l
    |> List.rev |> Array.of_list
  in
  let texts f = List.concat_map (fun t -> List.map (fun s -> s.Domain.text) (f t)) D.tasks in
  (uniq (texts D.observations), uniq (texts D.finals))

let per_pack_cap = 20_000

(* [n] distinct responses shaped like the pre-training corpus's, drawn
   from the pack's candidates: zero to two distinct observations, then one
   or two distinct final steps (each count uniform).  Distinctness is what
   makes every profile lookup a miss.  Returns fewer when the pack has
   fewer distinct responses of this shape. *)
let responses rng pack ~n =
  let obs, fins = candidates pack in
  let o = Array.length obs and f = Array.length fins in
  let space = (1 + o + (o * (o - 1))) * (f + (f * (f - 1))) in
  let n = min n space in
  let seen = Hashtbl.create (2 * n) in
  let out = Array.make n [] in
  let k = ref 0 in
  while !k < n do
    let pick arr count =
      Array.to_list (Rng.sample_without_replacement rng count arr)
    in
    let steps = pick obs (Rng.int rng 3) @ pick fins (1 + Rng.int rng 2) in
    if not (Hashtbl.mem seen steps) then begin
      Hashtbl.add seen steps ();
      out.(!k) <- steps;
      incr k
    end
  done;
  out

type input = { pack : Domain.t; steps : string list }

(* Each op verifies one response of every pack, in pack order.  The packs'
   verifications differ in cost (about 1, 2 and 4 ms for household,
   warehouse and driving), so an op of one response, pack after pack,
   would put the median where two packs' latency ranges meet; with a
   response of each, every op does the same mix of work. *)
let inputs packs seed =
  let rng = Rng.create seed in
  let pools = List.map (fun p -> (p, responses rng p ~n:per_pack_cap)) packs in
  let n = List.fold_left (fun m (_, a) -> min m (Array.length a)) max_int pools in
  Array.init n (fun i -> List.map (fun (p, a) -> { pack = p; steps = a.(i) }) pools)

(* ---------------- the traced decomposition ---------------- *)

type layer_counts = { mutable fsa_states : int list; mutable kripke_states : int list }

let counts = { fsa_states = []; kripke_states = [] }

(* What profile_of_steps does on a miss, one public call per layer. *)
let decomposed (module D : Domain.S) steps =
  let model = D.universal () in
  let specs = D.specs () in
  let controller =
    Spans.with_span "lang.compile" (fun () ->
        fst (D.controller_of_steps ~name:"response" steps))
  in
  let kripke =
    Spans.with_span "automata.product" (fun () ->
        Product.to_kripke (Product.build ~model ~controller))
  in
  counts.fsa_states <- controller.Dpoaf_automata.Fsa.n_states :: counts.fsa_states;
  counts.kripke_states <- Kripke.n_states kripke :: counts.kripke_states;
  let satisfied =
    List.filter_map
      (fun (n, phi) ->
        if Spans.with_span "automata.emptiness" (fun () -> MC.check_kripke kripke phi)
           |> MC.is_holds
        then Some n
        else None)
      specs
  in
  let vacuous =
    Spans.with_span "analysis.vacuity" (fun () ->
        Vacuity.vacuously_satisfied ~model ~controller ~specs ~satisfied)
  in
  { Domain.satisfied; vacuous }

(* ---------------- output checks ---------------- *)

(* Computed apart from profile_of_steps: counterexamples replayed through
   the lasso semantics, Holds verdicts tested on random walks of the
   product, and the profile's shape checked against the rule book. *)
let walks = 6

let check rng { pack = (module D : Domain.S); steps } (p : Domain.profile) =
  let model = D.universal () in
  let specs = D.specs () in
  let names = List.map fst specs in
  let controller, _ = D.controller_of_steps ~name:"response" steps in
  let kripke = Product.to_kripke (Product.build ~model ~controller) in
  let violated = List.filter (fun n -> not (List.mem n p.Domain.satisfied)) names in
  let in_order l = List.filter (fun n -> List.mem n l) names = l in
  let partition =
    in_order p.Domain.satisfied
    && List.length p.Domain.satisfied + List.length violated = List.length names
    && List.for_all (fun n -> List.mem n p.Domain.satisfied) p.Domain.vacuous
  in
  let lassos =
    List.filter_map (fun _ -> Kripke.random_lasso kripke rng) (List.init walks Fun.id)
  in
  partition
  && List.length lassos = walks
  && List.for_all
       (fun (n, phi) ->
         if List.mem n p.Domain.satisfied then
           List.for_all
             (fun (prefix, cycle) -> Trace.eval_lasso phi ~prefix ~cycle)
             lassos
         else
           match MC.check_kripke kripke phi with
           | MC.Holds -> false
           | MC.Fails cex ->
               not
                 (Trace.eval_lasso phi ~prefix:(Array.of_list cex.MC.prefix)
                    ~cycle:(Array.of_list cex.MC.cycle)))
       specs

(* ---------------- the workload ---------------- *)

let profile_caches packs = List.map (fun p -> profile_cache (Domain.name p)) packs

let run (a : args) =
  let packs, setup_s = timed_setup ~workload:a.workload setup in
  let inputs = inputs packs a.seed in
  let n_in = Array.length inputs in
  let results = Array.make n_in None in
  let op i =
    results.(i) <-
      Some
        (List.map
           (fun { pack = (module D : Domain.S); steps } -> D.profile_of_steps steps)
           inputs.(i))
  in
  (* a run that uses up the pool ends early rather than repeat a response *)
  let untraced = timed_loop ~seconds:a.seconds ~max_ops:n_in op in
  let n0 = Array.length untraced.lat_ms in
  let metrics, used =
    if not a.trace then (end_to_end ~setup_s untraced, n0)
    else begin
      (* traced pass on the next slice of the pool: even ops call
         profile_of_steps whole, odd ops its layer decomposition *)
      Spans.set_enabled true;
      let nba_states = ref [] in
      List.iter
        (fun (module D : Domain.S) ->
          List.iter
            (fun (_, phi) ->
              let nba =
                Spans.with_span "automata.tableau" (fun () ->
                    Buchi.degeneralize (Tableau.gnba_of_ltl (Ltl.neg phi)))
              in
              nba_states := Buchi.nba_states nba :: !nba_states)
            (D.specs ()))
        packs;
      let c0 = cache_counts (profile_caches packs) in
      let traced_op i =
        let j = n0 + i in
        let verify { pack = (module D : Domain.S) as pack; steps } =
          if i mod 2 = 0 then
            Spans.with_span "domain.profile" (fun () -> D.profile_of_steps steps)
          else decomposed pack steps
        in
        Spans.with_span ~parent:(-1) ~req:j "op" (fun () ->
            results.(j) <- Some (List.map verify inputs.(j)))
      in
      let traced = timed_loop ~seconds:a.seconds ~max_ops:(n_in - n0) traced_op in
      let c1 = cache_counts (profile_caches packs) in
      let n1 = Array.length traced.lat_ms in
      let spans = Spans.all () in
      let self = self_by_name spans in
      let us name = 1000.0 *. p50_or_zero (self name) in
      let mean l = Timing.mean (Array.of_list (List.map float_of_int l)) in
      let tableau = self "automata.tableau" in
      ( [
          metric "lang.compile_us" "us" (us "lang.compile");
          metric "lang.fsa_states" "count" (mean counts.fsa_states);
          metric "automata.product_us" "us" (us "automata.product");
          metric "automata.kripke_states" "count" (mean counts.kripke_states);
          metric "automata.emptiness_us" "us" (us "automata.emptiness");
          metric "automata.tableau_ms.p50" "ms" (p50_or_zero tableau);
          metric "automata.tableau_ms.p99" "ms" (p99_or_zero tableau);
          metric "automata.nba_states" "count" (mean !nba_states);
          metric "analysis.vacuity_us" "us" (us "analysis.vacuity");
          metric "domain.profile_us" "us" (us "domain.profile");
          metric "domain.profile_hit_ratio" "ratio" (hit_ratio c0 c1);
        ]
        @ gc_metrics ~ops:n1 ~alloc_mb:traced.alloc_mb ~majors:traced.majors
        @ trace_accounting ~op_name:"op"
            ~untraced_ops_per_s:(float_of_int n0 /. untraced.elapsed_s)
            ~traced_ops_per_s:(float_of_int n1 /. traced.elapsed_s)
            spans,
        n0 + n1 )
    end
  in
  let rng = Rng.create (a.seed + 1) in
  let failed = ref 0 in
  for j = 0 to used - 1 do
    match results.(j) with
    | Some ps when List.for_all2 (check rng) inputs.(j) ps -> ()
    | _ -> incr failed
  done;
  { attempted = used; failed = !failed; metrics }
