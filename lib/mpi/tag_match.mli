(** Envelope matching: (source, tag, context) with wildcards. *)

val any_source : int
val any_tag : int

type pattern = {
  m_src : int;  (** world rank or {!any_source} *)
  m_tag : int;  (** tag or {!any_tag} *)
  m_context : int;
}

val matches : pattern -> Packet.envelope -> bool
