(* The benchmark command.

     main.exe --workload NAME --seed N --seconds S --trace 0|1 [--cli PATH]
     main.exe --smoke [--cli PATH]
     main.exe --workload NAME --seed N --setup-only [--cli PATH]

   prints progress on stderr and, as the last line of stdout, one JSON
   object {correct, attempted, failed, metrics}. With --trace 0 the
   metrics are the end-to-end ones; with --trace 1 they are the
   per-layer ones, and the spans go to .perfbench/trace-NAME-SEED.jsonl.
   --smoke runs every workload at tiny sizes with the same checks and
   exits 1 if any check fails. --setup-only sets the workload up once,
   prints "setup_s S" and one "PHASE S" line per set-up phase, and
   exits. *)

open Bench

let workloads = [ "merge-greedy"; "merge-exhaustive"; "intake-stream"; "serve-mix" ]

(* The in-process workloads run on one domain. On a small virtual
   machine the hypervisor takes time from a busy vCPU now and then, and
   the stop-the-world barrier of a multi-domain OCaml runtime turns that
   into idle time on every other domain: one greedy merge measured
   2.2 s in a quiet phase and 6.0 s in one with 25-40 % steal on the
   default pool, against 3.5 s on one domain in that same phase. *)
let one_domain name =
  if name <> "serve-mix" then Im_par.Pool.set_default_domains 0

let run_workload ~smoke ~cli ~seed ~seconds name =
  one_domain name;
  match name with
  | "merge-greedy" -> Merge_wl.run ~smoke ~kind:Merge_wl.Greedy ~seed ~seconds
  | "merge-exhaustive" -> Merge_wl.run ~smoke ~kind:Merge_wl.Exhaustive ~seed ~seconds
  | "intake-stream" -> Intake_wl.run ~smoke ~seed ~seconds
  | "serve-mix" -> Serve_wl.run ~smoke ~cli ~seed ~seconds
  | other -> failwith ("unknown workload " ^ other)

(* One set-up alone: the child process of [Bench.measured_setup]. *)
let probe_workload ~cli ~seed name =
  one_domain name;
  match name with
  | "merge-greedy" -> Merge_wl.probe ~kind:Merge_wl.Greedy ~seed
  | "merge-exhaustive" -> Merge_wl.probe ~kind:Merge_wl.Exhaustive ~seed
  | "intake-stream" -> Intake_wl.probe ~seed
  | "serve-mix" -> Serve_wl.probe ~cli ~seed
  | other -> failwith ("unknown workload " ^ other)

(* The traced run's own end-to-end figures, to compare with an untraced
   run of the same seed: the difference is the tracing overhead. *)
let traced_e2e r =
  List.filter_map
    (fun x ->
      if x.m_name = "throughput_per_s" || x.m_name = "latency_p50_ms" then
        Some ("traced." ^ x.m_name, x.m_value)
      else None)
    r.r_e2e

(* The per-layer metrics carry no unit here: run.py takes the units from
   BENCHMARK.json, rejects a name it does not list, and reports a layer
   the workload does not cross as 0. *)
let result_json ~trace r =
  let metric (name, value, unit) =
    Printf.sprintf "%s: {\"value\": %s%s}" (json_string name) (json_float value)
      (match unit with Some u -> ", \"unit\": " ^ json_string u | None -> "")
  in
  let metrics =
    if trace then List.map (fun (k, v) -> (k, v, None)) (r.r_layers @ traced_e2e r)
    else List.map (fun x -> (x.m_name, x.m_value, Some x.m_unit)) r.r_e2e
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    r.r_correct r.r_attempted r.r_failed
    (String.concat ", " (List.map metric metrics))

let out_dir = ".perfbench"

let ensure_out_dir () =
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.
  and trace = ref 0 and smoke = ref false and setup_only = ref false
  and cli = ref "_build/default/bin/index_merge_cli.exe" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 per-layer run with spans");
      ("--smoke", Arg.Set smoke, " every workload at tiny sizes");
      ("--cli", Arg.Set_string cli, "PATH the index_merge_cli executable");
      ("--setup-only", Arg.Set setup_only, " set the workload up once and exit");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  ensure_out_dir ();
  if !smoke then begin
    (* Spans on, so the tracer and both result renderings run too. *)
    tracing := true;
    let ok = ref true in
    List.iter
      (fun name ->
        let t0 = now_ns () in
        let r = run_workload ~smoke:true ~cli:!cli ~seed:!seed ~seconds:0.5 name in
        ignore (result_json ~trace:false r, result_json ~trace:true r);
        let pass = r.r_correct && r.r_failed = 0 in
        if not pass then ok := false;
        List.iter (fun n -> log "  check failed: %s" n) r.r_notes;
        Printf.printf "smoke %-17s %s  %d ops  %.1fs\n%!" name
          (if pass then "ok  " else "FAIL") r.r_attempted (since_s t0))
      workloads;
    write_trace (Filename.concat out_dir "trace-smoke.jsonl");
    exit (if !ok then 0 else 1)
  end;
  if not (List.mem !workload workloads) then begin
    prerr_endline ("unknown workload " ^ !workload);
    exit 2
  end;
  if !setup_only then begin
    let s, phases = probe_workload ~cli:!cli ~seed:!seed !workload in
    List.iter (fun (k, v) -> Printf.printf "%s %.9f\n" k v) (("setup_s", s) :: phases);
    exit 0
  end;
  probe_argv :=
    [|
      Sys.executable_name; "--workload"; !workload; "--seed"; string_of_int !seed;
      "--cli"; !cli; "--setup-only";
    |];
  tracing := !trace = 1;
  let r = run_workload ~smoke:false ~cli:!cli ~seed:!seed ~seconds:!seconds !workload in
  List.iter (fun n -> log "check failed: %s" n) r.r_notes;
  if !tracing then begin
    let path = Printf.sprintf "%s/trace-%s-%d.jsonl" out_dir !workload !seed in
    write_trace path;
    List.iter
      (fun (name, (self_s, n)) -> log "self time %-24s %10.4f s  (%d spans)" name self_s n)
      (self_times ());
    log "spans written to %s" path
  end;
  print_endline (result_json ~trace:!tracing r)
