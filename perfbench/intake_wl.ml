(* intake-stream: a SQL script streamed by [Workload_file.fold] into the
   [Scale] compactor (eps = 0.05) with a [Mine] miner attached, as
   [merge --compress 0.05 --prune-support S] admits its workload. One
   operation is one statement's parse and admission; one round streams
   the whole script into a fresh compactor and miner, and a run streams
   whole rounds. *)

module Database = Im_catalog.Database
module Config = Im_catalog.Config
module Workload = Im_workload.Workload
module Scale = Im_scale.Scale
module Mine = Im_mine.Mine
module Service = Im_costsvc.Service
module Optimizer = Im_optimizer.Optimizer
open Bench

let eps = 0.05
let slice = 10_000

type instance = {
  db : Database.t;
  path : string;
  statements : int;
  counts : (string * int) list;  (** exact count per distinct text *)
  refs : (string * Config.t) list;  (** reference configurations *)
}

let write_stream pool ~seed ~statements path =
  let rng = Im_util.Rng.create seed in
  let counts = Hashtbl.create 512 in
  let oc = open_out path in
  for _ = 1 to statements do
    let sql = Gen.draw pool rng in
    Hashtbl.replace counts sql
      (1 + Option.value ~default:0 (Hashtbl.find_opt counts sql));
    output_string oc sql;
    output_string oc ";\n"
  done;
  close_out oc;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts [] |> List.sort compare

let setup ~smoke ~seed ~path () =
  let phases = ref [] in
  let statements = if smoke then 20_000 else 250_000 in
  let db =
    timed_phase phases "db_gen" (fun () ->
        Im_workload.Synthetic.database ~seed:1 Im_workload.Synthetic.synthetic1)
  in
  timed_phase phases "stats_warm" (fun () -> Merge_wl.warm_stats db);
  let pool, counts =
    timed_phase phases "workload_gen" (fun () ->
        let pool = Gen.pool db ~template_seed:7 ~n:60 in
        (pool, write_stream pool ~seed ~statements path))
  in
  let refs =
    timed_phase phases "initial_config" (fun () ->
        let w =
          Workload.make
            (Array.to_list
               (Array.map
                  (fun v ->
                    Result.get_ok
                      (Im_sqlir.Parser.parse_query ~schema:(Database.schema db) v.(0)))
                  pool.Gen.variants))
        in
        [
          ("empty", Config.empty);
          ("initial-8",
           Im_tuning.Initial_config.build db w ~rng:(Im_util.Rng.create 3) ~n:8);
          ("union", Im_tuning.Initial_config.per_query_union db w);
        ])
  in
  ({ db; path; statements; counts; refs }, List.rev !phases)

(* Cost(W, C) from the benchmark's own exact counts, and Cost(Ŵ, C)
   from the snapshot, both by plain optimizer calls. *)
let check_round c inst compactor miner streamed =
  let st = Scale.stats compactor in
  check c (streamed = inst.statements) "streamed %d of %d statements" streamed
    inst.statements;
  check c (st.Scale.st_statements = inst.statements)
    "compactor counted %d of %d statements" st.Scale.st_statements inst.statements;
  check c (Mine.statements miner = inst.statements)
    "miner counted %d of %d statements" (Mine.statements miner) inst.statements;
  let snap = Scale.snapshot compactor in
  check c (Workload.total_freq snap = float_of_int inst.statements)
    "snapshot mass %.1f for %d statements" (Workload.total_freq snap)
    inst.statements;
  check c (st.Scale.st_eps_bound <= eps) "reported bound %.6f exceeds eps %.2f"
    st.Scale.st_eps_bound eps;
  let schema = Database.schema inst.db in
  let cost config q = Im_optimizer.Plan.cost (Optimizer.optimize inst.db config q) in
  List.iter
    (fun (name, config) ->
      let exact =
        List.fold_left
          (fun acc (sql, n) ->
            let q = Result.get_ok (Im_sqlir.Parser.parse_query ~schema sql) in
            acc +. (float_of_int n *. cost config q))
          0. inst.counts
      in
      let approx =
        List.fold_left
          (fun acc e -> acc +. (e.Workload.freq *. cost config e.Workload.query))
          0. snap.Workload.entries
      in
      check c
        (Float.abs (exact -. approx) <= (st.Scale.st_eps_bound *. exact) +. 1e-6)
        "%s: |Cost(W,C) - Cost(W^,C)| = %.6g above bound %.6f of %.6g" name
        (Float.abs (exact -. approx)) st.Scale.st_eps_bound exact)
    inst.refs

let round_counters () =
  let gc = Gc.quick_stat () in
  [
    ("derive.derived", counter "derive_hits_total");
    ("derive.atom_hits", counter "derive_atom_hits_total");
    ("derive.atom_misses", counter "derive_atom_misses_total");
    ("optimizer.invocations", float_of_int (Optimizer.invocations ()));
    ("costsvc.hits", counter "costsvc_hits_total");
    ("costsvc.misses", counter "costsvc_misses_total");
    ("gc.minor_words_per_op", gc.Gc.minor_words);
    ("gc.major_collections_per_op", float_of_int gc.Gc.major_collections);
  ]

(* Peak memory grows a little with each round streamed (101 MB after 4
   rounds, 106 MB after 5), so it is read after this many rounds, never
   at a time-bound end; a run holds at least this many. *)
let memory_rounds = 2

(* The script is written per process, so set-up probes never share it. *)
let with_stream_path f =
  let path = Printf.sprintf ".perfbench/stream-%d.sql" (Unix.getpid ()) in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

(* One set-up alone, for [measured_setup]'s child processes. *)
let probe ~seed =
  with_stream_path @@ fun path ->
  let _, s, phases = timed_setup (setup ~smoke:false ~seed ~path) in
  (s, phases)

let run ~smoke ~seed ~seconds =
  with_stream_path @@ fun path ->
  let inst, setup_s, setup_phases =
    measured_setup ~n:(if smoke then 1 else 5) (setup ~smoke ~seed ~path)
  in
  log "intake-stream: %d statements per round, %d distinct texts" inst.statements
    (List.length inst.counts);
  let schema = Database.schema inst.db in
  let c = new_checks () in
  let lat = Array.make inst.statements 0. in
  let rounds = ref 0 and round_p99s = ref [] in
  let slice_rates = ref [] and slice_p50s = ref [] in
  let deltas = ref [] in
  let memory = ref 0. in
  let t_start = now_ns () in
  while !rounds < memory_rounds || since_s t_start < seconds do
    incr rounds;
    current_op := !rounds;
    let svc = Service.create ~derive:true inst.db in
    let miner = Mine.create () in
    let compactor = Scale.create ~eps ~mine:miner svc in
    let before = round_counters () in
    let observe_s = ref 0. in
    let t0 = now_ns () in
    let last = ref t0 in
    let result =
      span "workload.fold" (fun () ->
          Im_workload.Workload_file.fold ~schema inst.path ~init:0
            ~f:(fun n q freq ->
              let t1 = now_ns () in
              (* One callback in 1024 is recorded as a span; the layer
                 times below sum every callback. *)
              if n land 1023 = 0 then
                span "fold.callback" (fun () ->
                    span "scale.observe" (fun () -> Scale.observe compactor ?freq q))
              else Scale.observe compactor ?freq q;
              let t2 = now_ns () in
              observe_s := !observe_s +. ((t2 -. t1) /. 1e9);
              if n < inst.statements then lat.(n) <- (t2 -. !last) /. 1e9;
              last := t2;
              n + 1))
    in
    let wall = since_s t0 in
    let after = round_counters () in
    let streamed =
      match result with
      | Ok n -> n
      | Error msg ->
        check c false "fold stopped: %s" msg;
        0
    in
    let got = Array.sub lat 0 (min streamed inst.statements) in
    (* Only per-round figures are kept, so the benchmark's own memory
       does not grow with the number of rounds a run fits. *)
    if !tracing then round_p99s := quantile 0.99 (Array.to_list got) :: !round_p99s;
    (* Slices of [slice] statements: the machine's slow phases last
       seconds, so the run reports the median slice rather than the
       whole-run mean. [lat] holds the intervals between callback ends,
       so a slice's wall time is their sum. *)
    let slices = Array.length got / slice in
    for j = 0 to slices - 1 do
      let part = Array.to_list (Array.sub got (j * slice) slice) in
      slice_rates := float_of_int slice /. List.fold_left ( +. ) 0. part :: !slice_rates;
      slice_p50s := median part :: !slice_p50s
    done;
    let st = Scale.stats compactor in
    let n = float_of_int (max 1 streamed) in
    let d = List.map2 (fun (k, a) (_, b) -> (k, b -. a)) before after in
    let per_stmt k v =
      if String.starts_with ~prefix:"gc." k then v /. n else v
    in
    deltas :=
      (("sqlir.parse_busy_s", wall -. !observe_s)
       :: ("sqlir.parse_us_per_stmt", (wall -. !observe_s) *. 1e6 /. n)
       :: ("scale.observe_busy_s", !observe_s)
       :: ("scale.buckets", float_of_int st.Scale.st_buckets)
       :: ("scale.fold_ratio", Scale.fold_ratio st)
       :: ("scale.probe_costs", float_of_int st.Scale.st_probe_costs)
       :: ("scale.eps_bound", st.Scale.st_eps_bound)
       :: ("mine.itemsets", float_of_int (Mine.itemsets miner))
       :: ("mine.statements", float_of_int (Mine.statements miner))
       :: List.map (fun (k, v) -> (k, per_stmt k v)) d)
      :: !deltas;
    current_op := 0;
    let ok_before = c.failed_ops in
    ignore (span "check" (fun () -> checked_op c (fun () -> check_round c inst compactor miner streamed)));
    (* A failed round check fails every statement of the round. *)
    if c.failed_ops > ok_before then
      c.failed_ops <- c.failed_ops - 1 + inst.statements;
    if !rounds = memory_rounds then memory := peak_rss_mb "self"
  done;
  let attempted = !rounds * inst.statements in
  let layers =
    if not !tracing then []
    else
      List.map
        (fun k -> (k, median (List.map (List.assoc k) !deltas)))
        (List.map fst (List.hd !deltas))
      @ [ ("latency_p99_ms", median !round_p99s *. 1e3) ]
      @ setup_layers setup_phases
  in
  {
    r_attempted = attempted;
    r_failed = c.failed_ops;
    r_correct = true;
    r_e2e =
      [
        m "setup_s" "s" setup_s;
        m "throughput_per_s" "1/s" (median !slice_rates);
        m "latency_p50_ms" "ms" (median !slice_p50s *. 1e3);
        m "memory_mb" "MB" !memory;
      ];
    r_layers = layers;
    r_notes = c.failures;
  }
