(* Statement generation shared by intake-stream and serve-mix: a fixed
   pool of complex-query templates, constants shifted per draw, and a
   skewed pick over the pool. The pool is generated from a constant
   seed so every benchmark seed sees the same template mix; the
   benchmark seed draws the sequence and the shifts. *)

module Database = Im_catalog.Database
module Query = Im_sqlir.Query
module Rng = Im_util.Rng

(* Shift every integer literal in [sql] by [delta], leaving identifiers
   (which embed digits, e.g. t0_c15) untouched. *)
let shift_constants ~delta sql =
  let n = String.length sql in
  let buf = Buffer.create (n + 8) in
  let is_ident c =
    c = '_'
    || (c >= 'a' && c <= 'z')
    || (c >= 'A' && c <= 'Z')
    || (c >= '0' && c <= '9')
  in
  let i = ref 0 and prev_ident = ref false in
  while !i < n do
    let c = sql.[!i] in
    if c >= '0' && c <= '9' && not !prev_ident then begin
      let j = ref !i in
      while !j < n && sql.[!j] >= '0' && sql.[!j] <= '9' do
        incr j
      done;
      let lit = String.sub sql !i (!j - !i) in
      (match int_of_string_opt lit with
       | Some v -> Buffer.add_string buf (string_of_int (v + delta))
       | None -> Buffer.add_string buf lit);
      prev_ident := true;
      i := !j
    end
    else begin
      Buffer.add_char buf c;
      prev_ident := is_ident c;
      incr i
    end
  done;
  Buffer.contents buf

let shifts = 8

(* [variants.(t).(d)]: template [t] with its constants shifted by [d]
   (shift 0 is the template itself), each verified to parse. A shifted
   text that does not parse is replaced by the template, so no drawn
   statement can fail. *)
type pool = { variants : string array array }

let pool db ~template_seed ~n =
  let schema = Database.schema db in
  let templates =
    Im_workload.Workload.queries
      (Im_workload.Ragsgen.generate db ~rng:(Rng.create template_seed) ~n)
  in
  let variants =
    Array.of_list
      (List.map
         (fun q ->
           let sql = Query.to_sql q in
           Array.init shifts (fun delta ->
               let text = if delta = 0 then sql else shift_constants ~delta sql in
               match Im_sqlir.Parser.parse_query ~schema text with
               | Ok _ -> text
               | Error _ -> sql))
         templates)
  in
  { variants }

let size p = Array.length p.variants

(* Skew: half the draws go to the first quarter of the pool. *)
let pick rng n =
  let quarter = max 1 (n / 4) in
  if Rng.int rng 2 = 0 then Rng.int rng quarter else Rng.int rng n

let draw p rng =
  let t = pick rng (size p) in
  p.variants.(t).(Rng.int rng shifts)
