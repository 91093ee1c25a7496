(** ASCII and CSV rendering for experiment results. *)

type cell = Num of float | Text of string | Missing

val print_table :
  ?out:Format.formatter ->
  title:string ->
  headers:string list ->
  rows:(string * cell list) list ->
  unit ->
  unit
(** Aligned columns; numeric cells are printed with one decimal. *)

val write_file : string -> string -> unit
(** [write_file path contents], creating missing parent directories. *)

val write_csv :
  path:string -> headers:string list -> rows:(string * cell list) list -> unit
(** A header line (an empty label column, then [headers]) and one line
    per row, cells quoted where they hold a comma, quote or newline,
    written through {!write_file}. *)
