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

val csv_string : headers:string list -> rows:(string * cell list) list -> string

val write_file : string -> string -> unit
(** [write_file path contents], creating missing parent directories. *)

val write_csv :
  path:string -> headers:string list -> rows:(string * cell list) list -> unit
(** [csv_string] through {!write_file}. *)
