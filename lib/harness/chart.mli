(** ASCII charts: log-log line plots of experiment series, echoing the
    paper's Figures 9 and 10 in the terminal. *)

val log_log :
  ?out:Format.formatter ->
  title:string ->
  xlabel:string ->
  ylabel:string ->
  series:(string * (float * float) list) list ->
  unit ->
  unit
(** Each series is a name plus (x, y) points; non-positive values are
    skipped (log scale). Series are drawn with distinct glyphs, legend
    below the plot, on a 72x20 canvas. *)
