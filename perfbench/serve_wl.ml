(* serve-mix: the real [serve] daemon with two tenants (Synthetic1 as
   the default tenant, Synthetic2 as "s2"), driven from this process
   over loopback. One connection per tenant, each a closed loop holding
   [depth] commands in flight. A round is [round_cmds] commands per
   tenant: STMTs of generated complex statements, a STATS every 20th, a
   CONFIG every 50th, and one forced EPOCH at the middle; a run sends
   whole rounds. *)

module Database = Im_catalog.Database
open Bench

let depth = 2

type conn = {
  tenant : string;
  fd : Unix.file_descr;
  inbuf : Buffer.t;
  mutable pos : int;  (** scan offset into [inbuf] *)
}

type daemon = { pid : int; out : in_channel; port : int }

type instance = {
  daemon : daemon;
  conns : conn array;
  pools : Gen.pool array;
  budgets : int array;  (** CONFIG page budget per tenant *)
  sent : int array;  (** STMTs sent per tenant, warm-up included *)
}

(* ---- Daemon ---- *)

let spawn ~cli =
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let argv =
    [|
      cli; "serve"; "-d"; "synthetic1"; "--port"; "0"; "--tenant"; "s2=synthetic2";
      "--read-timeout"; "120"; "--max-connections"; "16";
    |]
  in
  let pid = Unix.create_process cli argv Unix.stdin out_w devnull in
  Unix.close out_w;
  Unix.close devnull;
  let out = Unix.in_channel_of_descr out_r in
  let banner = input_line out in
  let _tenants_line = input_line out in
  let port =
    match
      List.find_opt
        (fun w -> String.length w > 10 && String.sub w 0 10 = "127.0.0.1:")
        (String.split_on_char ' ' banner)
    with
    | Some w -> Scanf.sscanf w "127.0.0.1:%d" Fun.id
    | None -> failwith ("no port in daemon banner: " ^ banner)
  in
  { pid; out; port }

let stop_daemon d ~signal =
  if signal then (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
  (* The daemon prints its summary on the way out; drain it so it never
     blocks on a full pipe. *)
  (try
     while true do
       ignore (input_line d.out)
     done
   with End_of_file | Sys_error _ -> ());
  close_in_noerr d.out;
  ignore (Unix.waitpid [] d.pid)

let live_daemons : daemon list ref = ref []

let () =
  at_exit (fun () -> List.iter (stop_daemon ~signal:true) !live_daemons)

(* ---- Line protocol ---- *)

let connect port tenant =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  { tenant; fd; inbuf = Buffer.create 65536; pos = 0 }

let send c line =
  let s = line ^ "\n" in
  let n = String.length s in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write_substring c.fd s !off (n - !off)
  done

let chunk = Bytes.create 65536

(* Read what the socket has; false on end of stream. *)
let fill c =
  match Unix.read c.fd chunk 0 (Bytes.length chunk) with
  | 0 -> false
  | n ->
    Buffer.add_subbytes c.inbuf chunk 0 n;
    true

(* One complete reply if buffered: a single line, or "OK n" followed by
   n lines for the multi-line verbs. *)
let take_reply c ~multi =
  let b = Buffer.contents c.inbuf in
  let len = String.length b in
  let line_end from = String.index_from_opt b from '\n' in
  match line_end c.pos with
  | None -> None
  | Some e ->
    let first = String.sub b c.pos (e - c.pos) in
    let extra =
      if multi && String.length first > 3 && String.sub first 0 3 = "OK " then
        Option.value ~default:0 (int_of_string_opt (String.sub first 3 (String.length first - 3)))
      else 0
    in
    let rec skip k at acc =
      if k = 0 then Some (at, List.rev acc)
      else
        match line_end at with
        | None -> None
        | Some e' -> skip (k - 1) (e' + 1) (String.sub b at (e' - at) :: acc)
    in
    (match skip extra (e + 1) [] with
     | None -> None
     | Some (next, rest) ->
       if next >= len then begin
         Buffer.clear c.inbuf;
         c.pos <- 0
       end
       else c.pos <- next;
       Some (first, rest))

let rec recv_reply c ~multi =
  match take_reply c ~multi with
  | Some r -> r
  | None ->
    if fill c then recv_reply c ~multi else failwith "daemon closed the connection"

let request c ~multi line =
  send c line;
  recv_reply c ~multi

let multi_verb v = v = "CONFIG" || v = "TENANT" || v = "METRICS"

(* ---- Set-up ---- *)

let tenants = [| "synthetic1"; "s2" |]
let specs = [| Im_workload.Synthetic.synthetic1; Im_workload.Synthetic.synthetic2 |]

let setup ~smoke ~cli () =
  let phases = ref [] in
  let dbs =
    timed_phase phases "db_gen" (fun () ->
        Array.map (fun spec -> Im_workload.Synthetic.database ~seed:1 spec) specs)
  in
  let pools =
    timed_phase phases "workload_gen" (fun () ->
        Array.map
          (fun db -> Gen.pool db ~template_seed:11 ~n:(if smoke then 3 else 6))
          dbs)
  in
  let budgets = Array.map (fun db -> max 1 (Database.data_pages db / 2)) dbs in
  let daemon =
    timed_phase phases "daemon_ready" (fun () ->
        let d = spawn ~cli in
        live_daemons := d :: !live_daemons;
        let conns =
          Array.map
            (fun t ->
              let c = connect d.port t in
              let r, _ = request c ~multi:false ("TENANT USE " ^ t) in
              if r <> "OK tenant " ^ t then failwith ("TENANT USE: " ^ r);
              c)
            tenants
        in
        (d, conns))
  in
  let daemon, conns = daemon in
  ( { daemon; conns; pools; budgets; sent = Array.make (Array.length tenants) 0 },
    List.rev !phases )

let shutdown inst =
  (try ignore (request inst.conns.(0) ~multi:false "SHUTDOWN")
   with Failure _ | Unix.Unix_error _ -> ());
  Array.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) inst.conns;
  stop_daemon inst.daemon ~signal:false;
  live_daemons := List.filter (fun d -> d != inst.daemon) !live_daemons

(* ---- A round ---- *)

let round_cmds ~smoke = if smoke then 120 else 4000

let command_at ~smoke k =
  if k = round_cmds ~smoke / 2 then "EPOCH"
  else if k mod 50 = 0 then "CONFIG"
  else if k mod 20 = 0 then "STATS"
  else "STMT"

type samples = {
  mutable stmt : float list;
  mutable stats : float list;
  mutable config : float list;
  mutable epoch : float list;
  mutable commands : int;
}

let new_samples () = { stmt = []; stats = []; config = []; epoch = []; commands = 0 }

let config_pages rest =
  List.fold_left
    (fun acc line ->
      match String.rindex_opt line ' ' with
      | Some i ->
        acc + Option.value ~default:0
                (int_of_string_opt (String.sub line (i + 1) (String.length line - i - 1)))
      | None -> acc)
    0 rest

(* Drive one round on both connections from one select loop: each
   connection keeps up to [depth] commands in flight and sends its next
   command when a reply arrives. Replies must come back in order, one
   per command, none ERR. *)
let run_round ~smoke c inst rng samples =
  let n = round_cmds ~smoke in
  let nconn = Array.length inst.conns in
  let next = Array.make nconn 1 in
  let inflight = Array.init nconn (fun _ -> Queue.create ()) in
  let done_ = Array.make nconn 0 in
  let push i =
    let k = next.(i) in
    next.(i) <- k + 1;
    let verb = command_at ~smoke k in
    let line =
      if verb = "STMT" then begin
        inst.sent.(i) <- inst.sent.(i) + 1;
        "STMT " ^ Gen.draw inst.pools.(i) rng
      end
      else verb
    in
    Queue.push (verb, now_ns ()) inflight.(i);
    send inst.conns.(i) line
  in
  let settle i (first, rest) =
    let verb, t0 = Queue.pop inflight.(i) in
    let t1 = now_ns () in
    let dt = (t1 -. t0) /. 1e9 in
    (* Every non-STMT verb and one STMT in 64 become spans. *)
    if verb <> "STMT" || samples.commands land 63 = 0 then
      async_span ("client." ^ String.lowercase_ascii verb) ~start:t0 ~stop:t1;
    done_.(i) <- done_.(i) + 1;
    samples.commands <- samples.commands + 1;
    checked_op c (fun () ->
        check c
          (String.length first >= 2 && String.sub first 0 2 = "OK")
          "%s on %s answered %S" verb inst.conns.(i).tenant first;
        match verb with
        | "STMT" -> samples.stmt <- dt :: samples.stmt
        | "STATS" -> samples.stats <- dt :: samples.stats
        | "EPOCH" -> samples.epoch <- dt :: samples.epoch
        | _ ->
          samples.config <- dt :: samples.config;
          let pages = config_pages rest in
          check c (pages <= inst.budgets.(i))
            "CONFIG of %s totals %d pages over budget %d" inst.conns.(i).tenant
            pages inst.budgets.(i))
  in
  for i = 0 to nconn - 1 do
    for _ = 1 to min depth n do
      push i
    done
  done;
  let fd_index fd =
    let r = ref 0 in
    Array.iteri (fun i cn -> if cn.fd = fd then r := i) inst.conns;
    !r
  in
  while Array.exists (fun d -> d < n) done_ do
    let waiting =
      List.filter_map
        (fun i -> if done_.(i) < n then Some inst.conns.(i).fd else None)
        (List.init nconn Fun.id)
    in
    let ready, _, _ = Unix.select waiting [] [] 120. in
    if ready = [] then failwith "no reply from the daemon within 120 s";
    List.iter
      (fun fd ->
        let i = fd_index fd in
        if not (fill inst.conns.(i)) then failwith "daemon closed the connection";
        let rec drain () =
          match Queue.peek_opt inflight.(i) with
          | None -> ()
          | Some (verb, _) ->
            (match take_reply inst.conns.(i) ~multi:(multi_verb verb) with
             | None -> ()
             | Some r ->
               settle i r;
               if next.(i) <= n then push i;
               drain ())
        in
        drain ())
      ready
  done

(* ---- Daemon registry ---- *)

let scrape conn =
  let _, lines = request conn ~multi:true "METRICS" in
  List.filter_map
    (fun line ->
      match String.rindex_opt line ' ' with
      | Some i ->
        Option.map
          (fun v -> (String.sub line 0 i, v))
          (float_of_string_opt (String.sub line (i + 1) (String.length line - i - 1)))
      | None -> None)
    lines

(* Sum of every series of [base] (all label sets). *)
let series reg base =
  List.fold_left
    (fun acc (k, v) ->
      let name = match String.index_opt k '{' with Some i -> String.sub k 0 i | None -> k in
      if name = base then acc +. v else acc)
    0. reg

let series_l reg key =
  List.fold_left (fun acc (k, v) -> if k = key then acc +. v else acc) 0. reg

let tenant_statements conn =
  let _, rows = request conn ~multi:true "TENANT LIST" in
  List.filter_map
    (fun row ->
      match String.split_on_char ' ' row with
      | name :: fields ->
        List.find_map
          (fun f ->
            match String.split_on_char '=' f with
            | [ "statements"; v ] -> Option.map (fun v -> (name, v)) (int_of_string_opt v)
            | _ -> None)
          fields
      | [] -> None)
    rows

(* Set-up with one untimed round: the daemon builds its column
   statistics and runs its first epochs here, not in the timed rounds. *)
let warm_setup ~smoke ~cli ~seed () =
  let inst, phases = setup ~smoke ~cli () in
  let t0 = now_ns () in
  let c = new_checks () in
  span "setup.stats_warm" (fun () ->
      run_round ~smoke c inst (Im_util.Rng.create ((2 * seed) + 1)) (new_samples ()));
  if c.failures <> [] then failwith ("warm-up round: " ^ List.hd c.failures);
  (inst, phases @ [ ("stats_warm", since_s t0) ])

(* One set-up alone, for [measured_setup]'s child processes; the daemon
   is shut down after the clock stops. *)
let probe ~cli ~seed =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let inst, s, phases = timed_setup (warm_setup ~smoke:false ~cli ~seed) in
  shutdown inst;
  (s, phases)

(* The daemon's peak memory grows with the commands it has served, so it
   is read after a fixed number of rounds, never at a time-bound end. A
   run holds at least this many rounds. *)
let memory_rounds ~smoke = if smoke then 1 else 6

let run ~smoke ~cli ~seed ~seconds =
  (* A daemon that dies must surface as missing replies, not kill the
     client on its next write. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let inst, setup_s, setup_phases =
    measured_setup ~n:(if smoke then 1 else 5) (warm_setup ~smoke ~cli ~seed)
  in
  Fun.protect ~finally:(fun () -> shutdown inst) @@ fun () ->
  let c = new_checks () in
  let rng = Im_util.Rng.create seed in
  let samples = new_samples () in
  let reg0 = scrape inst.conns.(0) in
  let cpu0 = proc_cpu_s inst.daemon.pid in
  let rounds = ref 0 and round_rates = ref [] and round_p50s = ref [] in
  let lost = ref 0 and memory = ref 0. in
  let t_start = now_ns () in
  while !lost = 0 && (!rounds < memory_rounds ~smoke || since_s t_start < seconds) do
    incr rounds;
    current_op := !rounds;
    let t0 = now_ns () and cmds0 = samples.commands and stmts0 = samples.stmt in
    (match span "client.round" (fun () -> run_round ~smoke c inst rng samples) with
     | () ->
       (* Per-round figures; the run reports their medians, so a slow
          phase of the machine shifts a minority of rounds, not the
          result. *)
       round_rates := float_of_int (samples.commands - cmds0) /. since_s t0 :: !round_rates;
       let fresh = List.length samples.stmt - List.length stmts0 in
       round_p50s := median (List.filteri (fun i _ -> i < fresh) samples.stmt) :: !round_p50s;
       if !rounds = memory_rounds ~smoke then
         memory := peak_rss_mb (string_of_int inst.daemon.pid)
     | exception ((Failure _ | Unix.Unix_error _) as e) ->
       (* Every command of the round without a reply is a failed
          operation; the daemon is gone, so the run ends here. *)
       lost := (Array.length tenants * round_cmds ~smoke) - (samples.commands - cmds0);
       c.failed_ops <- c.failed_ops + !lost;
       check c false "round %d: %d replies missing (%s)" !rounds !lost
         (Printexc.to_string e));
    current_op := 0
  done;
  let cpu1 = proc_cpu_s inst.daemon.pid in
  let reg1 = if !lost > 0 then reg0 else scrape inst.conns.(0) in
  let run_ok =
    !lost = 0
    && run_checks c (fun () ->
        let counted = tenant_statements inst.conns.(0) in
        Array.iteri
          (fun i t ->
            let n = Option.value ~default:(-1) (List.assoc_opt t counted) in
            check c (n = inst.sent.(i))
              "TENANT LIST counts %d statements for %s, %d were sent" n t
              inst.sent.(i))
          tenants)
  in
  let delta base = series reg1 base -. series reg0 base in
  let delta_l key = series_l reg1 key -. series_l reg0 key in
  let per_round v = v /. float_of_int !rounds in
  let cmds = float_of_int samples.commands in
  let ratio a b = if b > 0. then a /. b else 0. in
  let hits = delta "costsvc_hits_total" and misses = delta "costsvc_misses_total" in
  let hit_s = delta_l "costsvc_lookup_seconds_sum{outcome=\"hit\"}"
  and miss_s = delta_l "costsvc_lookup_seconds_sum{outcome=\"miss\"}" in
  let layers =
    if not !tracing then []
    else
      List.map
        (fun (k, v) -> (k, per_round v))
        [
          ("online.statements", delta "online_statements_total");
          ("online.drift_checks", delta "online_drift_checks_total");
          ("online.drift_fires", delta "online_drift_fires_total");
          ("online.epochs", delta "online_epochs_total");
          ("online.epoch_busy_s", delta "online_epoch_seconds_sum");
          ("server.stmt_busy_s", delta_l "server_command_seconds_sum{verb=\"stmt\"}");
          ( "server.read_busy_s",
            delta_l "server_command_seconds_sum{verb=\"stats\"}"
            +. delta_l "server_command_seconds_sum{verb=\"config\"}" );
          ("server.dispatch_stall_s", delta "server_dispatch_stall_seconds");
          ("server.fairness_deferred", delta "server_fairness_deferred_total");
          ("server.bytes_out", delta "server_bytes_out_total");
          ("costsvc.hits", hits);
          ("costsvc.misses", misses);
          ("costsvc.evictions", delta "costsvc_evictions_total");
          ("costsvc.hit_busy_s", hit_s);
          ("costsvc.miss_busy_s", miss_s);
          ("derive.derived", delta "derive_hits_total");
          ("derive.fallbacks", delta "derive_fallback_total");
          ("derive.atom_hits", delta "derive_atom_hits_total");
          ("derive.atom_misses", delta "derive_atom_misses_total");
          ("merge_pair.calls", delta "merge_pair_seconds_count");
          ("merge_pair.busy_s", delta "merge_pair_seconds_sum");
          ("par.tasks", delta "par_tasks_total");
          ("par.task_busy_s", delta "par_task_seconds_sum");
          ("optimizer.invocations", delta "optimizer_calls_total");
        ]
      @ [
          ("costsvc.hit_ratio", ratio hits (hits +. misses));
          ("costsvc.hit_us", 1e6 *. ratio hit_s hits);
          ("costsvc.miss_us", 1e6 *. ratio miss_s misses);
          ("daemon.cpu_s_per_kcmd", (cpu1 -. cpu0) /. (cmds /. 1000.));
          ("client.stats_p50_ms", median samples.stats *. 1e3);
          ("client.config_p50_ms", median samples.config *. 1e3);
          ("latency_p99_ms", quantile 0.99 samples.stmt *. 1e3);
          ("epoch_p50_ms", median samples.epoch *. 1e3);
        ]
      @ setup_layers setup_phases
  in
  {
    r_attempted = samples.commands + !lost;
    r_failed = c.failed_ops;
    r_correct = run_ok;
    r_e2e =
      [
        m "setup_s" "s" setup_s;
        m "throughput_per_s" "1/s" (median !round_rates);
        m "latency_p50_ms" "ms" (median !round_p50s *. 1e3);
        m "memory_mb" "MB" !memory;
      ];
    r_layers = layers;
    r_notes = c.failures;
  }
