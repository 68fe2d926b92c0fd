(* What one workload run reports: the operation counts,
   whether every output passed its checks, and named metrics with their
   units. *)

type metric = string * float * string

type t = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
  info : (string * string) list;
      (** context printed on the line before the result: sample counts,
          the live baselines ratios are taken against, check tallies *)
}

let json_string s = Printf.sprintf "%S" s

(* every digit of the measurement: 17 significant digits round-trip *)
let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "null"

let metrics_json ms =
  String.concat ", "
    (List.map
       (fun (name, v, unit) ->
         Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string name)
           (json_number v) (json_string unit))
       ms)

let result_line r =
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    r.correct r.attempted r.failed (metrics_json r.metrics)

let info_line fields =
  "# info {"
  ^ String.concat ", "
      (List.map (fun (k, v) -> Printf.sprintf "%s: %s" (json_string k) v) fields)
  ^ "}"
