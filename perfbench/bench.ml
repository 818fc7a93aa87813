(* Shared machinery of the benchmark: the monotonic clock, order
   statistics, registry reads, spans, process memory and the result
   record every workload returns. Everything here observes the program
   from outside: it reads counters and histograms the program already
   keeps and times the benchmark's own calls into it. *)

module Metrics = Im_obs.Metrics

let now_ns () = Int64.to_float (Im_util.Stopwatch.now_ns ())
let since_s t0 = (now_ns () -. t0) /. 1e9

(* ---- Order statistics ---- *)

(* Nearest-rank quantile of an unsorted sample; 0 on an empty one. *)
let quantile q xs =
  match xs with
  | [] -> 0.
  | _ ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    let k = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    a.(max 0 (min (n - 1) k))

(* The median; the mean of the middle two for an even count. *)
let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* ---- Registry reads ---- *)

let counter ?labels name =
  Metrics.Counter.value (Metrics.counter ?labels name) |> float_of_int

(* Busy seconds and sample count from a histogram's exact [_sum] and
   [_count]; the log2-bucketed percentile fields are never used. *)
let hist_sum ?labels name = Metrics.Histogram.sum (Metrics.histogram ?labels name)

let hist_count ?labels name =
  float_of_int (Metrics.Histogram.count (Metrics.histogram ?labels name))

(* ---- Process state ---- *)

(* Peak resident set ("VmHWM:   1234 kB" in /proc/<pid>/status), in MB. *)
let peak_rss_mb pid =
  let key = "VmHWM" in
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> 0.
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0.
      | line ->
        let k = String.length key in
        if String.length line > k && String.sub line 0 k = key then
          Scanf.sscanf
            (String.sub line (k + 1) (String.length line - k - 1))
            " %f" (fun kb -> kb /. 1024.)
        else scan ()
    in
    let v = scan () in
    close_in ic;
    v

(* CPU seconds (user + system, all threads) of a process from
   /proc/<pid>/stat; USER_HZ is 100 on Linux. *)
let proc_cpu_s pid =
  let path = Printf.sprintf "/proc/%d/stat" pid in
  match open_in path with
  | exception Sys_error _ -> 0.
  | ic ->
    let line = input_line ic in
    close_in ic;
    (* Fields after the parenthesised command name; utime and stime are
       fields 14 and 15, i.e. the 12th and 13th after the state. *)
    let rest =
      let i = String.rindex line ')' in
      String.sub line (i + 2) (String.length line - i - 2)
    in
    let fields = Array.of_list (String.split_on_char ' ' rest) in
    (float_of_string fields.(11) +. float_of_string fields.(12)) /. 100.

let self_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* ---- Spans ---- *)

(* Spans are recorded only in a traced run. Each holds a name, start and
   end on the monotonic ns clock, its parent span and the operation it
   belongs to (0 for set-up), plus the registry deltas measured across
   it. They stay in memory and are written out when the run ends. *)
type span = {
  sp_id : int;
  sp_name : string;
  sp_parent : int;
  sp_op : int;
  sp_start : float;
  mutable sp_end : float;
  mutable sp_deltas : (string * float) list;
  sp_async : bool;
      (** a pipelined request: overlaps its siblings, so it is not
          subtracted from its parent's self time *)
}

let tracing = ref false
let spans : span list ref = ref []
let stack : span list ref = ref []
let next_id = ref 0
let current_op = ref 0

(* Registry readings recorded as deltas at every span boundary. *)
let boundary_counters () =
  [
    ("costsvc_hits", counter "costsvc_hits_total");
    ("costsvc_misses", counter "costsvc_misses_total");
    ("optimizer_invocations", float_of_int (Im_optimizer.Optimizer.invocations ()));
    ("par_tasks", counter "par_tasks_total");
    ("minor_words", (Gc.quick_stat ()).Gc.minor_words);
  ]

let span name f =
  if not !tracing then f ()
  else begin
    incr next_id;
    let parent = match !stack with p :: _ -> p.sp_id | [] -> 0 in
    let s =
      {
        sp_id = !next_id;
        sp_name = name;
        sp_parent = parent;
        sp_op = !current_op;
        sp_start = now_ns ();
        sp_end = 0.;
        sp_deltas = [];
        sp_async = false;
      }
    in
    let before = boundary_counters () in
    stack := s :: !stack;
    let finish () =
      s.sp_end <- now_ns ();
      stack := List.tl !stack;
      s.sp_deltas <-
        List.map2 (fun (k, a) (_, b) -> (k, b -. a)) before
          (boundary_counters ());
      spans := s :: !spans
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

(* Record a finished request span measured by the caller (send to
   reply), under the innermost open span. *)
let async_span name ~start ~stop =
  if !tracing then begin
    incr next_id;
    let parent = match !stack with p :: _ -> p.sp_id | [] -> 0 in
    spans :=
      {
        sp_id = !next_id;
        sp_name = name;
        sp_parent = parent;
        sp_op = !current_op;
        sp_start = start;
        sp_end = stop;
        sp_deltas = [];
        sp_async = true;
      }
      :: !spans
  end

(* Self time per span name: duration minus the part covered by child
   spans (children nest inside their parent on one thread). *)
let self_times () =
  let child_time = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let d = s.sp_end -. s.sp_start in
      if not s.sp_async then
        Hashtbl.replace child_time s.sp_parent
          (d +. Option.value ~default:0. (Hashtbl.find_opt child_time s.sp_parent)))
    !spans;
  let self = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let d = s.sp_end -. s.sp_start in
      let c = Option.value ~default:0. (Hashtbl.find_opt child_time s.sp_id) in
      let prev = Option.value ~default:(0., 0) (Hashtbl.find_opt self s.sp_name) in
      Hashtbl.replace self s.sp_name (fst prev +. ((d -. c) /. 1e9), snd prev + 1))
    !spans;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) self []
  |> List.sort compare

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0"

(* Write the spans as JSONL, followed by one self-time record per span
   name. *)
let write_trace path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%s,\"parent\":%d,\"op\":%d,\"async\":%b,\"start_ns\":%s,\"end_ns\":%s,\"deltas\":{%s}}\n"
        s.sp_id (json_string s.sp_name) s.sp_parent s.sp_op s.sp_async
        (json_float s.sp_start) (json_float s.sp_end)
        (String.concat ","
           (List.map
              (fun (k, v) -> Printf.sprintf "%s:%s" (json_string k) (json_float v))
              s.sp_deltas)))
    (List.rev !spans);
  List.iter
    (fun (name, (self_s, n)) ->
      Printf.fprintf oc "{\"self_time\":%s,\"seconds\":%s,\"spans\":%d}\n"
        (json_string name) (json_float self_s) n)
    (self_times ());
  close_out oc

(* ---- Results ---- *)

type metric = { m_name : string; m_value : float; m_unit : string }

let m m_name m_unit m_value = { m_name; m_value; m_unit }

type result = {
  r_attempted : int;
  r_failed : int;
  r_correct : bool;
  r_e2e : metric list;
  r_layers : (string * float) list;  (** only the layers this workload crosses *)
  r_notes : string list;  (** failed checks, for the log *)
}

(* A correctness check: failures are collected, never raised, so one
   failed operation is counted and the run goes on. *)
type checks = { mutable failures : string list; mutable failed_ops : int }

let new_checks () = { failures = []; failed_ops = 0 }

let check c ok fmt =
  Printf.ksprintf (fun msg -> if not ok then c.failures <- msg :: c.failures) fmt

(* Run one operation's checks; the operation counts as failed when any
   of them fails. *)
let checked_op c f =
  let before = List.length c.failures in
  let v = f () in
  if List.length c.failures > before then c.failed_ops <- c.failed_ops + 1;
  v

(* Checks over the whole run rather than one operation: a failure makes
   the run incorrect. *)
let run_checks c f =
  let before = List.length c.failures in
  f ();
  List.length c.failures = before

let log fmt = Printf.eprintf (fmt ^^ "\n%!")

(* ---- Set-up ---- *)

(* One set-up, timed: its state, its seconds and its phase times. *)
let timed_setup f =
  let t0 = now_ns () in
  let st, phases = f () in
  (st, since_s t0, phases)

(* The command line that runs this workload's set-up alone, in a child
   process that prints "setup_s S" and one "PHASE S" line per phase. *)
let probe_argv : string array ref = ref [||]

let probe_setup () =
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process !probe_argv.(0) !probe_argv Unix.stdin out_w Unix.stderr in
  Unix.close out_w;
  let ic = Unix.in_channel_of_descr out_r in
  let rec lines acc =
    match input_line ic with
    | l -> lines (Scanf.sscanf l "%s %f" (fun k v -> (k, v)) :: acc)
    | exception End_of_file -> List.rev acc
  in
  let kv = lines [] in
  close_in ic;
  (match Unix.waitpid [] pid with
   | _, Unix.WEXITED 0 -> ()
   | _ -> failwith "set-up probe failed");
  (List.assoc "setup_s" kv, List.remove_assoc "setup_s" kv)

(* Set up [n] times and report the median time, so one slow start does
   not decide it: [n - 1] times in child processes that set up and exit,
   then once here, keeping that state. Every set-up starts in a fresh
   process, so none pays for the one before and this process's peak
   memory holds one set-up. The phase times are medians too, for the
   [setup.*] layer metrics. *)
let measured_setup ~n f =
  let probes = List.init (n - 1) (fun _ -> probe_setup ()) in
  let st, s, phases = timed_setup f in
  let all = (s, phases) :: probes in
  let phase_medians =
    List.map
      (fun (k, _) -> (k, median (List.map (fun (_, ph) -> List.assoc k ph) all)))
      phases
  in
  (st, median (List.map fst all), phase_medians)

let setup_layers phases = List.map (fun (k, v) -> ("setup." ^ k ^ "_s", v)) phases

let timed_phase phases name f =
  let t0 = now_ns () in
  let v = span ("setup." ^ name) f in
  phases := (name, since_s t0) :: !phases;
  v
