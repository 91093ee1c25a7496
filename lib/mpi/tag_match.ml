let any_source = -1
let any_tag = -1

type pattern = {
  m_src : int;
  m_tag : int;
  m_context : int;
}

let matches p (e : Packet.envelope) =
  p.m_context = e.Packet.e_context
  && (p.m_src = any_source || p.m_src = e.Packet.e_src)
  && (p.m_tag = any_tag || p.m_tag = e.Packet.e_tag)
