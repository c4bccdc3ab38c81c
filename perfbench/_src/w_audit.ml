(* spec_audit: each op audits every registered pack the way
   `dpoaf_cli analyze --suite` does -- spec sanity with the pairwise
   sweep, the model and demo-controller lints, and the whole-suite pass
   with its size-3 conflict-core search. *)

open Common
module Domain = Dpoaf_domain.Domain
module Ltl = Dpoaf_logic.Ltl
module Symbol = Dpoaf_logic.Symbol
module Trace = Dpoaf_logic.Trace
module Buchi = Dpoaf_automata.Buchi
module Tableau = Dpoaf_automata.Tableau
module Sat = Dpoaf_automata.Satisfiability
module Diag = Dpoaf_analysis.Diagnostic
module Spec_sanity = Dpoaf_analysis.Spec_sanity
module Suite_sanity = Dpoaf_analysis.Suite_sanity
module Model_lint = Dpoaf_analysis.Model_lint
module Controller_lint = Dpoaf_analysis.Controller_lint
module Vacuity = Dpoaf_analysis.Vacuity

let setup () =
  let packs = Dpoaf_domain.all () in
  List.iter
    (fun (module D : Domain.S) ->
      ignore (D.specs ());
      ignore (D.lexicon ());
      ignore (D.universal ());
      List.iter (fun sc -> ignore (D.model sc)) D.scenarios)
    packs;
  packs

let scenario_models (module D : Domain.S) =
  List.map (fun sc -> (sc, Option.get (D.model sc))) D.scenarios

(* spec sanity, model lint and demo-controller lint, as run_analyze *)
let spec_diags (module D : Domain.S) =
  Spec_sanity.check ~model:(D.universal ())
    ~free:(Symbol.of_atoms D.actions) ~pairwise:true (D.specs ())

let lint_diags ((module D : Domain.S) as pack) =
  let specs = D.specs () and universal = D.universal () in
  let models =
    Model_lint.lint ~specs ~ignore:(Symbol.of_atoms D.actions) universal
    @ List.concat_map
        (fun (_, m) -> Model_lint.lint ~specs ~coverage:false m)
        (scenario_models pack)
  in
  models
  @ List.concat_map
      (fun (name, steps) ->
        let controller, _ = D.controller_of_steps ~name steps in
        let satisfied =
          (D.profile_of_controller ~model:universal controller).Domain.satisfied
        in
        Controller_lint.lint controller
        @ Vacuity.diagnostics ~model:universal ~controller ~specs ~satisfied)
      D.demo_responses

let suite_inputs ((module D : Domain.S) as pack) =
  let universal = D.universal () in
  let models = ("universal", universal) :: scenario_models pack in
  let pool =
    List.map
      (fun (name, steps) ->
        (name, (D.profile_of_steps ~model:universal steps).Domain.satisfied))
      D.demo_responses
  in
  (models, pool)


let cores_of diags =
  List.filter_map
    (fun (d : Diag.t) ->
      if d.Diag.code = "SUITE001" then
        Option.map (String.split_on_char ',') d.Diag.witness
        |> Option.map (List.map String.trim)
      else None)
    diags

(* One pack, untraced: exactly the calls of `analyze --suite`. *)
let audit_pack ((module D : Domain.S) as pack) =
  let models, pool = suite_inputs pack in
  let suite =
    Suite_sanity.check ~suite:D.name ~propositions:D.propositions
      ~actions:D.actions ~models ~pool (D.specs ())
  in
  ignore (spec_diags pack @ lint_diags pack);
  cores_of suite

(* One pack, traced: Suite_sanity.check split into its public parts (the
   same calls in the same order), each part in its own span. *)
let audit_pack_traced ((module D : Domain.S) as pack) =
  let specs = D.specs () and actions = D.actions in
  ignore (Spans.with_span "analysis.implications" (fun () -> spec_diags pack));
  ignore (Spans.with_span "analysis.lint" (fun () -> lint_diags pack));
  let models, pool = suite_inputs pack in
  let cores =
    Spans.with_span "analysis.conflict_cores" (fun () ->
        Suite_sanity.conflict_cores specs)
  in
  Spans.with_span "analysis.realizability" (fun () ->
      List.iter
        (fun (_, model) ->
          match Suite_sanity.realizable ~model ~actions specs with
          | Suite_sanity.Unrealizable ->
              ignore (Suite_sanity.unrealizable_core ~model ~actions specs)
          | Suite_sanity.Realizable | Suite_sanity.Unknown -> ())
        models);
  Spans.with_span "analysis.lint" (fun () ->
      ignore (Suite_sanity.coverage ~vocabulary:D.propositions specs);
      ignore (Suite_sanity.coverage ~vocabulary:actions specs);
      ignore (Suite_sanity.undistinguishing ~pool specs));
  Spans.with_span "analysis.redundancy" (fun () ->
      ignore
        (Suite_sanity.joint_redundancies ~model:(snd (List.hd models)) ~actions specs));
  cores

(* ---------------- output checks ---------------- *)

let conjunction = function
  | [] -> Ltl.True
  | phi :: rest -> List.fold_left (fun acc p -> Ltl.And (acc, p)) phi rest

let rec subsets k xs =
  if k = 0 then [ [] ]
  else
    match xs with
    | [] -> []
    | x :: rest -> List.map (fun s -> x :: s) (subsets (k - 1) rest) @ subsets k rest

let nba_states = ref []

(* A satisfiability verdict is believed only with a lasso that the LTL
   semantics confirms.  In the traced run the NBA of each checked
   formula is also built alone, for the tableau layer's figures. *)
let confirmed phi =
  if Spans.enabled () then begin
    let nba =
      Spans.with_span ~parent:(-1) "automata.tableau" (fun () ->
          Buchi.degeneralize (Tableau.gnba_of_ltl phi))
    in
    nba_states := Buchi.nba_states nba :: !nba_states
  end;
  match Sat.witness phi with
  | Some (prefix, cycle) -> Trace.eval_lasso phi ~prefix ~cycle
  | None -> false

(* every spec is satisfiable, and every subset of size 2..3 that the core
   search did not report (and that contains no smaller reported core) has
   a confirmed witness *)
let check_pack (module D : Domain.S) cores =
  let specs = D.specs () in
  List.for_all (fun (_, phi) -> confirmed phi) specs
  && List.for_all
       (fun size ->
         List.for_all
           (fun subset ->
             let names = List.map fst subset in
             List.exists
               (fun core -> List.for_all (fun n -> List.mem n names) core)
               cores
             || confirmed (conjunction (List.map snd subset)))
           (subsets size specs))
       [ 2; 3 ]

(* A contradiction planted in a copy of the household book -- the
   negation of the spec the seed picks -- must come back as a two-spec
   core.  This is the only use of the seed: the timed audit is a fixed
   function of the registered books. *)
let planted_found seed =
  let (module D : Domain.S) = Dpoaf_domain.find_exn "household" in
  let specs = D.specs () in
  let name, phi = List.nth specs (abs seed mod List.length specs) in
  let book = specs @ [ ("planted", Ltl.Not phi) ] in
  let cores = Suite_sanity.conflict_cores book in
  List.exists
    (fun core -> List.sort compare core = List.sort compare [ name; "planted" ])
    cores

let run (a : args) =
  let packs, setup_s = timed_setup ~workload:a.workload setup in
  let results = ref [] in
  let op audit _ = results := List.map audit packs :: !results in
  let untraced = timed_loop ~seconds:a.seconds (op audit_pack) in
  let n0 = Array.length untraced.lat_ms in
  let traced_metrics =
    if not a.trace then None
    else begin
      Spans.set_enabled true;
      let traced =
        timed_loop ~seconds:a.seconds (fun i ->
            Spans.with_span ~parent:(-1) ~req:(n0 + i) "op" (fun () ->
                op audit_pack_traced i))
      in
      Some traced
    end
  in
  (* ---- output checks ---- *)
  let results = List.rev !results in
  let first = List.hd results in
  let checks_ok =
    List.for_all2 check_pack packs first && planted_found a.seed
  in
  (* every audit of the same books must find the same cores *)
  let failed =
    if not checks_ok then List.length results
    else
      List.length
        (List.filter
           (fun r -> r <> first)
           results)
  in
  let metrics =
    match traced_metrics with
    | None -> end_to_end ~setup_s untraced
    | Some traced ->
        let spans = Spans.all () in
        let n1 = Array.length traced.lat_ms in
        (* per op: the summed duration of each analysis part over the packs *)
        let per_op name = p50_or_zero (per_op_ms spans name) in
        let tableau = self_by_name spans "automata.tableau" in
        [
          metric "analysis.conflict_cores_ms" "ms" (per_op "analysis.conflict_cores");
          metric "analysis.implications_ms" "ms" (per_op "analysis.implications");
          metric "analysis.realizability_ms" "ms" (per_op "analysis.realizability");
          metric "analysis.redundancy_ms" "ms" (per_op "analysis.redundancy");
          metric "analysis.lint_ms" "ms" (per_op "analysis.lint");
          metric "automata.tableau_ms.p50" "ms" (p50_or_zero tableau);
          metric "automata.tableau_ms.p99" "ms" (p99_or_zero tableau);
          metric "automata.nba_states" "count"
            (Timing.mean (Array.of_list (List.map float_of_int !nba_states)));
        ]
        @ gc_metrics ~ops:n1 ~alloc_mb:traced.alloc_mb ~majors:traced.majors
        @ trace_accounting ~op_name:"op"
            ~untraced_ops_per_s:(float_of_int n0 /. untraced.elapsed_s)
            ~traced_ops_per_s:(float_of_int n1 /. traced.elapsed_s)
            spans
  in
  { attempted = List.length results; failed; metrics }
