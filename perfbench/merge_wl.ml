(* merge-greedy and merge-exhaustive: the paper's offline merge through
   [Search.run], one merge per operation with a fresh cost service.

   Each instance is fixed: the merge problem is generated from constant
   seeds, and the benchmark seed permutes the order of the workload's
   statements (which reorders every cost fold but poses the same
   problem). Generated instances differ far more than any change this
   benchmark should resolve: over Synthetic2 seeds, one 60-query greedy
   merge took 0.9 s to 5.7 s, so a seed-drawn instance would measure the
   draw rather than the program. *)

module Database = Im_catalog.Database
module Config = Im_catalog.Config
module Index = Im_catalog.Index
module Workload = Im_workload.Workload
module Search = Im_merging.Search
module Merge = Im_merging.Merge
module Merge_pair = Im_merging.Merge_pair
module Service = Im_costsvc.Service
module Optimizer = Im_optimizer.Optimizer
open Bench

type kind = Greedy | Exhaustive

type instance = {
  db : Database.t;
  workload : Workload.t;
  initial : Config.t;
}

let cost_constraint = 0.10
let config_limit = 100_000

(* Exhaustive: the initial configuration's per-table shape, assigned to
   the tables with the most per-query recommendations. 5/5/3/1 gives
   52 * 52 * 5 * 1 = 13,520 set partitions, well under the cap. *)
let exhaustive_shape ~smoke = if smoke then [ 3; 2 ] else [ 5; 5; 3; 1 ]

let warm_stats db =
  let schema = Database.schema db in
  List.iter
    (fun t ->
      List.iter
        (fun c -> ignore (Database.stats db t.Im_sqlir.Schema.tbl_name c.Im_sqlir.Schema.col_name))
        t.Im_sqlir.Schema.tbl_columns)
    schema.Im_sqlir.Schema.tables

let permute seed qs =
  Workload.make ~name:"perfbench" (Im_util.Rng.shuffle (Im_util.Rng.create seed) qs)

let shaped_initial shape union =
  let by_table =
    Im_util.List_ext.group_by (fun ix -> ix.Index.idx_table) union
    |> List.stable_sort (fun (_, a) (_, b) ->
           compare (List.length b) (List.length a))
  in
  List.concat
    (List.mapi
       (fun k (_, ixs) ->
         match List.nth_opt shape k with
         | Some quota -> List.filteri (fun i _ -> i < quota) ixs
         | None -> [])
       by_table)

let setup ~smoke kind seed () =
  let phases = ref [] in
  let spec, queries, template_seed =
    match kind with
    | Greedy ->
      (Im_workload.Synthetic.synthetic2, (if smoke then 12 else 60), 10)
    | Exhaustive -> (Im_workload.Synthetic.synthetic1, (if smoke then 10 else 30), 1)
  in
  let db =
    timed_phase phases "db_gen" (fun () ->
        Im_workload.Synthetic.database ~seed:1 spec)
  in
  timed_phase phases "stats_warm" (fun () -> warm_stats db);
  let workload =
    timed_phase phases "workload_gen" (fun () ->
        Workload.queries
          (Im_workload.Ragsgen.generate db
             ~rng:(Im_util.Rng.create template_seed) ~n:queries)
        |> permute seed)
  in
  let initial =
    timed_phase phases "initial_config" (fun () ->
        let union =
          List.sort Index.compare
            (Im_tuning.Initial_config.per_query_union db workload)
        in
        match kind with
        | Greedy -> union
        | Exhaustive -> shaped_initial (exhaustive_shape ~smoke) union)
  in
  ({ db; workload; initial }, List.rev !phases)

(* ---- Checks computed apart from the search ---- *)

(* Cost(W, C) from plain optimizer calls: no cost service, no derive. *)
let plain_cost inst config =
  List.fold_left
    (fun acc e ->
      acc
      +. (e.Workload.freq
          *. Im_optimizer.Plan.cost
               (Optimizer.optimize inst.db config e.Workload.query)))
    0. inst.workload.Workload.entries

let same_set a b = List.sort compare a = List.sort compare b

let rec is_prefix p l =
  match (p, l) with
  | [], _ -> true
  | x :: p', y :: l' -> x = y && is_prefix p' l'
  | _ :: _, [] -> false

(* Definitions 1-3, restated here rather than calling [Merge]. *)
let check_definitions c inst items =
  List.iter
    (fun it ->
      let ix = it.Merge.it_index and parents = it.Merge.it_parents in
      let cols = ix.Index.idx_columns in
      let union =
        List.sort_uniq compare
          (List.concat_map (fun p -> p.Index.idx_columns) parents)
      in
      check c
        (List.for_all (fun p -> p.Index.idx_table = ix.Index.idx_table) parents
         && List.sort_uniq compare cols = union
         && List.length cols = List.length union)
        "Definition 1: %s is not the column union of its parents"
        (Index.to_string ix);
      check c
        (List.exists (fun p -> is_prefix p.Index.idx_columns cols) parents)
        "Definition 2: no parent's columns lead %s" (Index.to_string ix))
    items;
  let survivors =
    List.concat_map (fun it -> List.map Index.to_string it.Merge.it_parents) items
  in
  check c
    (same_set survivors (List.map Index.to_string inst.initial))
    "Definition 3: initial indexes do not each have exactly one survivor"

let check_outcome c inst (o : Search.outcome) =
  let final = Merge.config_of_items o.Search.o_items in
  let initial_cost = plain_cost inst inst.initial in
  let final_cost = plain_cost inst final in
  let bound = (1. +. cost_constraint) *. initial_cost in
  check c
    (final_cost <= bound *. (1. +. 1e-12))
    "Cost(W, final) %.6g exceeds 1.10 x Cost(W, initial) %.6g" final_cost
    initial_cost;
  let pages =
    List.fold_left
      (fun acc it -> acc + Database.index_pages inst.db it.Merge.it_index)
      0 o.Search.o_items
  in
  check c (pages = o.Search.o_final_pages)
    "merged pages %d recomputed as %d" o.Search.o_final_pages pages;
  check_definitions c inst o.Search.o_items;
  pages

(* ---- Traced probes ---- *)

(* Per-lookup cost of the cost service: every query under the initial
   configuration on a fresh service, cold (all misses) then warm (all
   hits). Median over repetitions, in microseconds. *)
let cost_probe inst =
  let queries = Workload.queries inst.workload in
  let n = float_of_int (List.length queries) in
  let pass svc =
    let t0 = now_ns () in
    List.iter (fun q -> ignore (Service.query_cost svc inst.initial q)) queries;
    since_s t0 *. 1e6 /. n
  in
  let samples =
    List.init 5 (fun _ ->
        span "probe.costsvc" (fun () ->
            let svc = Service.create ~derive:true inst.db in
            let miss = pass svc in
            let hit = pass svc in
            (miss, hit)))
  in
  (median (List.map fst samples), median (List.map snd samples))

(* MergePair-Cost on every same-table pair of the initial
   configuration, in microseconds per call. *)
let merge_pair_probe inst =
  span "probe.merge_pair" (fun () ->
      let seek = Im_merging.Seek_cost.analyze inst.db inst.initial inst.workload in
      let pairs =
        List.concat_map
          (fun (_, ixs) ->
            List.concat_map
              (fun a -> List.filter_map (fun b -> if Index.compare a b < 0 then Some (a, b) else None) ixs)
              ixs)
          (Im_util.List_ext.group_by (fun ix -> ix.Index.idx_table) inst.initial)
      in
      let t0 = now_ns () in
      List.iter
        (fun (a, b) ->
          ignore
            (Merge_pair.merge Merge_pair.Cost_based ~db:inst.db
               ~workload:inst.workload ~seek ~current:inst.initial a b))
        pairs;
      since_s t0 *. 1e6 /. float_of_int (max 1 (List.length pairs)))

(* ---- The run ---- *)

let strategy = function
  | Greedy -> Search.Greedy
  | Exhaustive -> Search.Exhaustive_search { config_limit }

(* Registry readings whose per-operation deltas become layer metrics. *)
let op_counters () =
  let gc = Gc.quick_stat () in
  [
    ("merge_pair.calls", hist_count ~labels:[ ("procedure", "cost_based") ] "merge_pair_seconds");
    ("merge_pair.busy_s", hist_sum ~labels:[ ("procedure", "cost_based") ] "merge_pair_seconds");
    ("costsvc.evictions", counter "costsvc_evictions_total");
    ("costsvc.hit_busy_s", hist_sum ~labels:[ ("outcome", "hit") ] "costsvc_lookup_seconds");
    ("costsvc.miss_busy_s", hist_sum ~labels:[ ("outcome", "miss") ] "costsvc_lookup_seconds");
    ("derive.atom_hits", counter "derive_atom_hits_total");
    ("derive.atom_misses", counter "derive_atom_misses_total");
    ("optimizer.invocations", float_of_int (Optimizer.invocations ()));
    ("par.tasks", counter "par_tasks_total");
    ("par.task_busy_s", hist_sum "par_task_seconds");
    ("cpu_s", self_cpu_s ());
    ("gc.minor_words_per_op", gc.Gc.minor_words);
    ("gc.major_collections_per_op", float_of_int gc.Gc.major_collections);
  ]

(* Peak memory is read after this many merges, so it does not depend on
   how many a run fits; a run holds at least this many. *)
let memory_ops = 2

(* One set-up alone, for [measured_setup]'s child processes. *)
let probe ~kind ~seed =
  let _, s, phases = timed_setup (setup ~smoke:false kind seed) in
  (s, phases)

let run ~smoke ~kind ~seed ~seconds =
  let inst, setup_s, setup_phases =
    measured_setup ~n:(if smoke then 1 else 5) (setup ~smoke kind seed)
  in
  log "%s: %d statements, %d initial indexes, pool %d domains"
    (match kind with Greedy -> "merge-greedy" | Exhaustive -> "merge-exhaustive")
    (Workload.size inst.workload) (List.length inst.initial)
    (Im_par.Pool.domain_count (Im_par.Pool.default ()));
  let c = new_checks () in
  let latencies = ref [] and walls = ref 0. and ops = ref 0 in
  let deltas = ref [] and outcomes = ref [] in
  let memory = ref 0. in
  let t_start = now_ns () in
  while !ops < memory_ops || since_s t_start < seconds do
    incr ops;
    current_op := !ops;
    let before = op_counters () in
    let t0 = now_ns () in
    let o =
      span "search.run" (fun () ->
          Search.run inst.db inst.workload ~initial:inst.initial (strategy kind))
    in
    let dt = since_s t0 in
    let after = op_counters () in
    latencies := dt :: !latencies;
    walls := !walls +. dt;
    let d = List.map2 (fun (k, a) (_, b) -> (k, b -. a)) before after in
    let cpu = List.assoc "cpu_s" d in
    deltas :=
      (("par.cpu_per_wall", cpu /. dt)
       :: ("search.rounds", float_of_int o.Search.o_iterations)
       :: ("search.cost_evals", float_of_int o.Search.o_cost_evaluations)
       :: ("costsvc.hits", float_of_int o.Search.o_cache_hits)
       :: ("costsvc.misses", float_of_int o.Search.o_cache_misses)
       :: ("costsvc.hit_ratio",
           float_of_int o.Search.o_cache_hits
           /. float_of_int (max 1 (o.Search.o_cache_hits + o.Search.o_cache_misses)))
       :: ("derive.derived", float_of_int o.Search.o_derived_costs)
       :: ("derive.fallbacks", float_of_int o.Search.o_derive_fallbacks)
       :: List.filter (fun (k, _) -> k <> "cpu_s") d)
      :: !deltas;
    current_op := 0;
    ignore (span "check" (fun () -> checked_op c (fun () -> check_outcome c inst o)));
    outcomes := o :: !outcomes;
    if !ops = memory_ops then memory := peak_rss_mb "self"
  done;
  (* Every operation solves the same problem, so every outcome must be
     the same configuration. *)
  let first = List.hd !outcomes in
  let names o = List.map (fun it -> Index.to_string it.Merge.it_index) o.Search.o_items in
  let run_ok =
    run_checks c (fun () ->
        List.iter
          (fun o ->
            check c (names o = names first)
              "operations of one run merged to different configurations")
          !outcomes;
        match kind with
        | Greedy -> ()
        | Exhaustive ->
          check c (not first.Search.o_truncated) "exhaustive enumeration truncated";
          let g = Search.run inst.db inst.workload ~initial:inst.initial Search.Greedy in
          check c
            (first.Search.o_final_pages <= g.Search.o_final_pages)
            "exhaustive pages %d exceed greedy pages %d" first.Search.o_final_pages
            g.Search.o_final_pages)
  in
  let layers =
    if not !tracing then []
    else begin
      let miss_us, hit_us = cost_probe inst in
      let mp_us = merge_pair_probe inst in
      List.map
        (fun k -> (k, median (List.map (List.assoc k) !deltas)))
        (List.map fst (List.hd !deltas))
      @ [
          ("costsvc.miss_us", miss_us);
          ("costsvc.hit_us", hit_us);
          ("merge_pair.probe_us", mp_us);
          ("merged_pages", float_of_int first.Search.o_final_pages);
        ]
      @ setup_layers setup_phases
    end
  in
  {
    r_attempted = !ops;
    r_failed = c.failed_ops;
    r_correct = run_ok;
    r_e2e =
      [
        m "setup_s" "s" setup_s;
        m "throughput_per_s" "1/s" (float_of_int !ops /. !walls);
        m "latency_p50_ms" "ms" (median !latencies *. 1e3);
        m "memory_mb" "MB" !memory;
      ];
    r_layers = layers;
    r_notes = c.failures;
  }
